#!/usr/bin/env bash
# Sampled host-time profile of run_all, split by the simulator's layers.
#
#   scripts/profile.sh [run_all args]        e.g. scripts/profile.sh --quick
#
# Builds run_all with line tables and frame pointers (the release settings
# plus debug = "line-tables-only" and -C force-frame-pointers=yes) into
# target/profile, and runs it with scripts/profile_sampler.c preloaded: a
# SIGPROF sampler, built here with cc, that records the interrupted PC and
# up to three frame-pointer return addresses about once per
# CPU-millisecond and dumps them and /proc/self/maps at exit. Each address
# is turned into an ELF virtual address of run_all (its file offset
# through the LOAD headers from readelf -lW) and symbolized with
# addr2line -a -f -i -C.
#
# A sample is charged to the innermost inlined frame at its PC whose
# source file is in this repository. When the PC has none (libc's malloc
# or memcpy, std code that was not inlined), the sample goes to the first
# caller, by return address, that has one; samples with no such frame at
# all are reported as outside the repository.
#
# Prints the share of samples per crate (the layer table), the 20 busiest
# source files and the 20 hottest source lines. Nothing in the simulator
# changes: run_all's stdout is kept in target/profile/out/run_all.txt and
# matches an unprofiled run. The numbers depend on the host, so this is a
# measuring tool, not a check.sh stage. Needs cc, readelf, addr2line and
# python3.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd -P)
target="$repo/target/profile"
out="$target/out"

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only RUSTFLAGS="-C force-frame-pointers=yes" \
    CARGO_TARGET_DIR="$target" cargo build --locked --offline --release --quiet --bin run_all
rm -rf "$out"
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/sampler.so" scripts/profile_sampler.c
exe="$target/release/run_all"
(cd "$out" && LD_PRELOAD="$out/sampler.so" "$exe" "$@" > run_all.txt)

echo "host: $(nproc) cpus, $(rustc --version), git $(git rev-parse --short HEAD)"
echo "run_all $*: stdout in $out/run_all.txt"
python3 - "$repo" "$exe" "$out" <<'PY'
import collections, functools, os, subprocess, sys

repo, exe, out = sys.argv[1:]
# One sample per line: the PC, then return addresses, outermost last.
samples = [tuple(int(a, 16) for a in line.split()) for line in open(f"{out}/sampler_pcs.txt")]
samples = [s for s in samples if s]
if not samples:
    sys.exit("no samples: did run_all run?")

# Executable mappings of run_all: (start, end, file offset).
maps = []
for line in open(f"{out}/sampler_maps.txt"):
    f = line.split()
    if len(f) >= 6 and f[5] == exe and "x" in f[1]:
        start, end = (int(x, 16) for x in f[0].split("-"))
        maps.append((start, end, int(f[2], 16)))
# LOAD segments: (file offset, virtual address, file size). The text
# segment's address differs from its offset, so a PC's file offset is not
# an address addr2line understands until it goes through these.
loads = []
elf = subprocess.run(["readelf", "-lW", exe], capture_output=True, text=True, check=True)
for line in elf.stdout.splitlines():
    f = line.split()
    if f and f[0] == "LOAD":
        loads.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))


def elf_address(pc):
    for start, end, offset in maps:
        if start <= pc < end:
            file_offset = pc - start + offset
            for seg_offset, seg_addr, seg_size in loads:
                if seg_offset <= file_offset < seg_offset + seg_size:
                    return file_offset - seg_offset + seg_addr
    return None


# A return address points after its call: symbolize the byte before it.
chains = collections.Counter(
    tuple(elf_address(a if depth == 0 else a - 1) for depth, a in enumerate(s)) for s in samples
)
addresses = sorted({a for chain in chains for a in chain if a is not None})
symbolized = subprocess.run(
    ["addr2line", "-e", exe, "-a", "-f", "-i", "-C"],
    input="".join(f"{a:#x}\n" for a in addresses),
    capture_output=True, text=True, check=True,
).stdout.splitlines()

# addr2line prints each address, then (function, file:line) per inlined
# frame, innermost first.
frames, i = {}, 0
while i < len(symbolized):
    if symbolized[i].startswith("0x"):
        current = frames.setdefault(int(symbolized[i], 16), [])
        i += 1
    else:
        current.append((symbolized[i], symbolized[i + 1]))
        i += 2


@functools.cache
def repo_file(path):
    """`path` relative to the repository, if it names a source file there."""
    full = os.path.normpath(os.path.join(repo, path))
    rel = os.path.relpath(full, repo)
    if rel.startswith("..") or rel.startswith("target/") or not os.path.isfile(full):
        return None
    return rel


def repo_frame(address):
    for function, location in frames.get(address, []):
        path, _, line = location.split(" (")[0].rpartition(":")
        rel = repo_file(path)
        if rel is not None:
            return rel, line, function
    return None


crates, files, lines = collections.Counter(), collections.Counter(), collections.Counter()
functions = {}
outside = by_caller = 0
for chain, n in chains.items():
    found = next(((depth, f) for depth, a in enumerate(chain) if (f := repo_frame(a))), None)
    if found is None:
        outside += n
        continue
    depth, (path, line, function) = found
    by_caller += n if depth > 0 else 0
    parts = path.split("/")
    crate = "/".join(parts[:2]) if parts[0] in ("crates", "vendor") else parts[0]
    crates[crate] += n
    files[path] += n
    lines[f"{path}:{line}"] += n
    functions[f"{path}:{line}"] = function

total = len(samples)
print(
    f"{total} samples, {100 * (total - outside) / total:.1f}% in repository files "
    f"({100 * by_caller / total:.1f}% through a caller)"
)


def table(title, counter, limit=None, names=None):
    print(f"\n{title:<44} {'samples':>8} {'share':>7}")
    for key, n in counter.most_common(limit):
        extra = f"  {names[key][:60]}" if names else ""
        print(f"{key:<44} {n:>8} {100 * n / total:>6.1f}%{extra}")


table("layer (crate)", crates + collections.Counter({"outside the repository": outside}))
table("source file", files, 20)
table("source line", lines, 20, functions)
PY
