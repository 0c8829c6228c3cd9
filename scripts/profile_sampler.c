/*
 * SIGPROF sampler for scripts/profile.sh, loaded into run_all with
 * LD_PRELOAD. It arms ITIMER_PROF when the process starts; every expiry
 * (one per millisecond of CPU time, across all threads, at the kernel's
 * timer resolution) stores the interrupted program counter, and the
 * return addresses of up to three frame-pointer frames above it, in a
 * buffer allocated up front, so the signal handler neither allocates nor
 * locks. At exit it writes one line per sample to sampler_pcs.txt (the
 * PC, then the return addresses, in hex) and a copy of /proc/self/maps to
 * sampler_maps.txt, both in the directory PROFILE_SAMPLER_DIR names, or
 * in the current directory when it is unset. profile.sh turns them into
 * source lines.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

/* 2^20 samples: about two CPU-hours at the kernel's usual rate. */
#define MAX_SAMPLES (1u << 20)
/* The PC and up to three return addresses. */
#define DEPTH 4
/* A frame record lies at most this far above the stack pointer. */
#define STACK_WINDOW (1u << 20)

static uintptr_t samples[MAX_SAMPLES][DEPTH];
static atomic_size_t taken;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    size_t i = atomic_fetch_add_explicit(&taken, 1, memory_order_relaxed);
    if (i >= MAX_SAMPLES) {
        return;
    }
    uintptr_t *sample = samples[i];
#if defined(__x86_64__)
    sample[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
    sample[0] = (uintptr_t)uc->uc_mcontext.pc;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.sp;
#else
#error "profile_sampler.c supports x86_64 and aarch64"
#endif
    /*
     * A frame record is {previous frame pointer, return address}. Code
     * built without frame pointers (libc) may hold anything in the frame
     * register, so the walk stops at the first record that is not an
     * aligned address just above the last one on this thread's stack.
     */
    for (int d = 1; d < DEPTH; d++) {
        if (fp < sp || fp - sp > STACK_WINDOW || fp % sizeof(uintptr_t) != 0) {
            break;
        }
        const uintptr_t *record = (const uintptr_t *)fp;
        sample[d] = record[1];
        sp = fp + 2 * sizeof(uintptr_t);
        fp = record[0];
    }
}

__attribute__((constructor)) static void sampler_start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

/* Opens `name` for writing in the output directory. */
static FILE *open_output(const char *name) {
    const char *dir = getenv("PROFILE_SAMPLER_DIR");
    char path[4096];
    snprintf(path, sizeof path, "%s/%s", dir != NULL ? dir : ".", name);
    FILE *f = fopen(path, "w");
    if (f == NULL) {
        perror(path);
    }
    return f;
}

__attribute__((destructor)) static void sampler_dump(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    size_t n = atomic_load(&taken);
    if (n > MAX_SAMPLES) {
        fprintf(stderr, "profile_sampler: buffer full, dropped %zu samples\n",
                n - MAX_SAMPLES);
        n = MAX_SAMPLES;
    }
    FILE *pcs = open_output("sampler_pcs.txt");
    if (pcs == NULL) {
        return;
    }
    for (size_t i = 0; i < n; i++) {
        for (int d = 0; d < DEPTH && samples[i][d] != 0; d++) {
            fprintf(pcs, d == 0 ? "%lx" : " %lx", (unsigned long)samples[i][d]);
        }
        fputc('\n', pcs);
    }
    fclose(pcs);

    FILE *in = fopen("/proc/self/maps", "r");
    FILE *out = in != NULL ? open_output("sampler_maps.txt") : NULL;
    if (out == NULL) {
        if (in != NULL) {
            fclose(in);
        }
        return;
    }
    char buf[4096];
    size_t got;
    while ((got = fread(buf, 1, sizeof buf, in)) > 0) {
        fwrite(buf, 1, got, out);
    }
    fclose(in);
    fclose(out);
}
