//! End-to-end tests of the compile service: concurrent clients, admission
//! control, backpressure, bounded-cache consistency and snapshot
//! warm-start.

use qudit_synthesis::service::{
    CompileService, JobRequest, JobStatus, ServiceClient, ServiceConfig,
};

/// A program of `repeats` doubly-controlled swaps (the paper's 2-Toffoli
/// gadget shape — the deepest gate the pipeline lowers directly) over a
/// register of the given width.
fn mcs_source(dimension: u32, width: usize, levels: (u32, u32), repeats: usize) -> String {
    let mut source = format!("OPENQASM 3.0;\nqudit[{dimension}] q[{width}];\n");
    for r in 0..repeats {
        let a = r % width;
        let b = (r + 1) % width;
        let c = (r + 2) % width;
        source.push_str(&format!(
            "ctrl @ ctrl @ swap({}, {}) q[{a}], q[{b}], q[{c}];\n",
            levels.0, levels.1,
        ));
    }
    source
}

fn job(tenant: &str, id: usize, source: String) -> JobRequest {
    JobRequest {
        tenant: tenant.to_string(),
        id: format!("{tenant}-{id}"),
        source,
    }
}

#[test]
fn concurrent_tenants_each_get_exactly_one_reply_in_fifo_order() {
    let service = CompileService::start(
        ServiceConfig::new()
            .workers(2)
            .cache_capacity(4)
            .max_queue_depth(32),
    )
    .expect("service boots");
    let addr = service.local_addr();
    let clients = 4;
    let jobs_per_client = 8;
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let tenant = format!("tenant-{c}");
                let mut client = ServiceClient::connect(addr).expect("connect");
                for j in 0..jobs_per_client {
                    if j % 4 == 3 {
                        // An unparsable qasm job: flows through the tenant
                        // queue like any other and must get an error reply.
                        client
                            .send(&job(&tenant, j, "OPENQASM 3.0;\nboop q[0];".into()))
                            .expect("send");
                    } else {
                        let source = mcs_source(3, 3 + (j % 2), (0, 1 + (j as u32 % 2)), 2);
                        client.send(&job(&tenant, j, source)).expect("send");
                    }
                }
                let mut replies = Vec::new();
                for _ in 0..jobs_per_client {
                    replies.push(client.recv().expect("one reply per job"));
                }
                // Exactly one reply per job id, in submission order (the
                // whole connection is one tenant, so FIFO is end-to-end).
                let ids: Vec<String> = replies.iter().map(|r| r.id.clone()).collect();
                let expected: Vec<String> = (0..jobs_per_client)
                    .map(|j| format!("{tenant}-{j}"))
                    .collect();
                assert_eq!(ids, expected, "per-tenant FIFO order");
                for (j, reply) in replies.iter().enumerate() {
                    assert_eq!(reply.tenant, tenant);
                    if j % 4 == 3 {
                        assert_eq!(reply.status, JobStatus::Error);
                        assert!(!reply.message.is_empty());
                    } else {
                        assert!(reply.is_ok(), "job {j}: {}", reply.message);
                        assert!(reply.gates > 0);
                        assert!(reply.depth > 0);
                        assert!(!reply.qasm.is_empty());
                    }
                }
            });
        }
    });
    let stats = service.shutdown();
    let total = (clients * jobs_per_client) as u64;
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.completed + stats.compile_errors, total);
    assert_eq!(stats.compile_errors, (clients * jobs_per_client / 4) as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.protocol_errors, 0);
    // Bounded-cache consistency: misses count insertions exactly, so the
    // live entry count is misses minus evictions, within the bound.
    let cache = stats.cache;
    assert!(cache.hits + cache.misses > 0);
    assert_eq!(cache.misses - cache.evictions, cache.entries as u64);
    assert!(cache.entries <= 4);
}

#[test]
fn malformed_lines_get_error_replies_without_entering_the_queues() {
    let service = CompileService::start(ServiceConfig::new().workers(1)).expect("service boots");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    client.send_raw("this is not json").expect("send");
    let reply = client.recv().expect("reply");
    assert_eq!(reply.status, JobStatus::Error);
    client
        .send_raw("{\"tenant\":\"t\",\"id\":\"7\"}")
        .expect("send");
    let reply = client.recv().expect("reply");
    assert_eq!(reply.status, JobStatus::Error);
    assert_eq!(reply.id, "7", "identity fields are echoed when parsable");
    assert!(reply.message.contains("source"));
    let stats = service.shutdown();
    assert_eq!(stats.protocol_errors, 2);
    assert_eq!(stats.accepted, 0);
}

#[test]
fn admission_control_rejects_when_a_tenant_queue_is_full() {
    // One worker and a queue depth of one: occupy the worker with a heavy
    // job, fill the queue with the second, and every further burst job is
    // turned away with a typed reject.
    let service = CompileService::start(ServiceConfig::new().workers(1).max_queue_depth(1))
        .expect("service boots");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    let heavy = mcs_source(3, 8, (0, 2), 150);
    let burst = 6;
    for j in 0..burst {
        client.send(&job("burst", j, heavy.clone())).expect("send");
    }
    let mut ok = 0;
    let mut rejected = 0;
    for _ in 0..burst {
        let reply = client.recv().expect("one reply per job");
        match reply.status {
            JobStatus::Ok => ok += 1,
            JobStatus::Rejected => {
                rejected += 1;
                assert!(reply.message.contains("queue is full"));
            }
            JobStatus::Error => panic!("unexpected error: {}", reply.message),
        }
    }
    assert_eq!(ok + rejected, burst);
    assert!(rejected >= 1, "burst past the queue depth must reject");
    let stats = service.shutdown();
    assert_eq!(stats.rejected, rejected as u64);
    assert_eq!(stats.completed, ok as u64);
}

#[test]
fn backpressure_blocks_the_reader_instead_of_growing_memory() {
    // max_pending(1): at most one job queued or in flight service-wide;
    // the reader stalls on further lines until the worker drains.  Every
    // job still completes, none are rejected.
    let service = CompileService::start(
        ServiceConfig::new()
            .workers(1)
            .max_pending(1)
            .max_queue_depth(8),
    )
    .expect("service boots");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    let jobs = 5;
    for j in 0..jobs {
        client
            .send(&job("slow", j, mcs_source(3, 4, (0, 2), 3)))
            .expect("send");
    }
    for j in 0..jobs {
        let reply = client.recv().expect("reply");
        assert!(reply.is_ok(), "job {j}: {}", reply.message);
        assert_eq!(reply.id, format!("slow-{j}"));
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, jobs as u64);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn snapshot_warm_start_round_trips_to_pure_hits() {
    let sources: Vec<String> = (0..4)
        .map(|j| mcs_source(3, 3 + j % 2, (0, 1 + (j as u32 % 2)), 2))
        .collect();
    // First service: compile the set cold, then export the cache.
    let cold = CompileService::start(ServiceConfig::new().workers(1)).expect("service boots");
    let mut client = ServiceClient::connect(cold.local_addr()).expect("connect");
    for (j, source) in sources.iter().enumerate() {
        let reply = client
            .roundtrip(&job("warmup", j, source.clone()))
            .expect("roundtrip");
        assert!(reply.is_ok(), "{}", reply.message);
    }
    let snapshot = cold.cache_snapshot();
    let cold_stats = cold.shutdown();
    assert!(cold_stats.cache.misses > 0, "cold run populates the cache");

    // Second service: warm-started from the snapshot, the same jobs hit
    // the cache on every lookup — zero misses.
    let warm = CompileService::start(ServiceConfig::new().workers(1).warm_start(snapshot.clone()))
        .expect("warm service boots");
    let mut client = ServiceClient::connect(warm.local_addr()).expect("connect");
    for (j, source) in sources.iter().enumerate() {
        let reply = client
            .roundtrip(&job("warm", j, source.clone()))
            .expect("roundtrip");
        assert!(reply.is_ok(), "{}", reply.message);
    }
    let warm_stats = warm.shutdown();
    assert_eq!(
        warm_stats.cache.misses, 0,
        "a warm-started cache answers every lookup"
    );
    assert!(warm_stats.cache.hits > 0);
    assert_eq!(warm_stats.cache.entries as u64, cold_stats.cache.misses);

    // Corrupt snapshots fail the boot with a typed error.
    let corrupt =
        CompileService::start(ServiceConfig::new().warm_start("qudit-lowering-cache v999\n"));
    let error = corrupt.err().expect("corrupt snapshot must not boot");
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
    assert!(error.to_string().contains("snapshot"));
}

#[test]
fn shutdown_replies_to_queued_jobs_then_closes_the_connection() {
    // One worker, five jobs queued behind it: shutdown ends the blocking
    // reader, but the replies of admitted jobs still go out on the write
    // half before the connection closes.
    let service = CompileService::start(ServiceConfig::new().workers(1)).expect("service boots");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connect");
    let jobs = 5;
    for j in 0..jobs {
        client
            .send(&job("drain", j, mcs_source(3, 4, (0, 2), 3)))
            .expect("send");
    }
    // Shut down only once every job is admitted, so each reply is `ok`.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while service.stats().accepted < jobs as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "jobs were not admitted"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, jobs as u64);
    for j in 0..jobs {
        let reply = client.recv().expect("one reply per queued job");
        assert!(reply.is_ok(), "job {j}: {}", reply.message);
        assert_eq!(reply.id, format!("drain-{j}"));
    }
    let end = client
        .recv()
        .expect_err("the connection closes after the replies");
    assert_eq!(end.kind(), std::io::ErrorKind::UnexpectedEof);
}
