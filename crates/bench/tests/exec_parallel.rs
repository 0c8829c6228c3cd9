//! The executor's determinism contract: pool size must not change
//! results, their order, or their values in any way, and a panicking
//! cell must fail alone instead of killing the batch.

use tmi_bench::{Executor, JobResult, JobSpec, RuntimeKind};

const WORKLOADS: [&str; 4] = ["histogram", "lreg", "blackscholes", "stringmatch"];

fn batch() -> Vec<JobSpec> {
    WORKLOADS
        .iter()
        .flat_map(|&name| {
            [
                JobSpec::new(name).scale(0.05),
                JobSpec::repair(name)
                    .runtime(RuntimeKind::TmiProtect)
                    .scale(0.05)
                    .misaligned(),
            ]
        })
        .collect()
}

fn fingerprint(r: &JobResult) -> (String, u64, u64, u64, u64, bool, Result<(), String>) {
    let run = r.result();
    (
        run.workload.clone(),
        run.cycles,
        run.ops,
        run.hitm_events,
        run.commits,
        run.repaired,
        run.verified.clone(),
    )
}

#[test]
fn pool_size_one_and_four_produce_identical_result_streams() {
    let serial = Executor::new(1).run(batch());
    let parallel = Executor::new(4).run(batch());
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), 2 * WORKLOADS.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(fingerprint(a), fingerprint(b));
        assert_eq!(a.result().runtime, b.result().runtime);
        // Results come back in submission order.
        assert_eq!(a.result().workload, WORKLOADS[i / 2]);
    }
}

#[test]
fn panicking_job_marks_one_cell_failed_and_spares_the_rest() {
    let mut specs: Vec<JobSpec> = WORKLOADS
        .iter()
        .map(|&name| JobSpec::new(name).scale(0.03))
        .collect();
    specs.push(JobSpec::new("no-such-workload").scale(0.03));
    let bad = specs.len() - 1;
    let exec = Executor::new(4);
    let results = exec.run(specs);

    assert_eq!(results.len(), WORKLOADS.len() + 1);
    let failed: Vec<usize> = (0..results.len())
        .filter(|&i| results[i].outcome.is_err())
        .collect();
    assert_eq!(failed, [bad], "exactly the injected cell fails");
    let err = results[bad].outcome.as_ref().unwrap_err();
    assert!(
        err.contains("no-such-workload under pthreads"),
        "the failure names its cell: {err}"
    );
    for (i, r) in results.iter().enumerate() {
        if i != bad {
            assert!(r.ok(), "{}: {:?}", WORKLOADS[i], r.outcome);
        }
    }
    let statuses: Vec<&str> = exec.job_log().iter().map(|r| r.status).collect();
    assert_eq!(statuses, ["ok", "ok", "ok", "ok", "failed"]);
}

#[test]
fn identical_cells_memoize_across_batches() {
    let exec = Executor::new(2);
    let batch1 = exec.run(vec![JobSpec::new("histogram").scale(0.03)]);
    let batch2 = exec.run(vec![JobSpec::new("histogram").scale(0.03)]);
    assert_eq!(batch1[0].result().cycles, batch2[0].result().cycles);

    let log = exec.job_log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].status, "ok");
    assert_eq!(
        log[1].status, "cached",
        "second batch must hit the memo cache"
    );
    assert_eq!(log[1].sim_cycles, log[0].sim_cycles);
}

#[test]
fn job_log_json_has_the_documented_shape() {
    let exec = Executor::new(1);
    exec.run(vec![JobSpec::new("histogram").scale(0.03)]);
    let json = exec.to_json();
    for needle in [
        "\"schema\": \"tmi-bench-harness/2\"",
        "\"pool_workers\": 1",
        "\"jobs\": 1",
        "\"cache_hits\": 0",
        "\"workload\": \"histogram\"",
        "\"runtime\": \"pthreads\"",
        "\"scale\": 0.03",
        "\"status\": \"ok\"",
        "\"metrics\": {",
        "\"machine.hitm_events\":",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}
