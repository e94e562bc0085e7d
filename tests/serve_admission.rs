//! Admission-control suite for `mx-serve`: bounded queues exert real
//! backpressure, overload sheds with a **typed** rejection (never a silent
//! drop), expired deadlines are answered with `DeadlineExceeded`, and the
//! latency-SLO gate orders traffic by priority. The tests drive the
//! controller with purpose-built models — a `Gate` that blocks its worker
//! until released and a `Sleeper` with a known service time — so every
//! assertion is about *which* typed outcome arrives, not about wall-clock
//! racing.

use mx::models::zoo::{BatchModel, InputKind, ZooInput};
use mx::nn::qflow::QuantConfig;
use mx::serve::{
    AdmissionConfig, Priority, Request, RequestInput, ServeError, Server, ServerConfig,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Pixel model that reports each batch's size on `entered`, then parks its
/// worker on a channel until the test releases (or drops) the sender — the
/// stand-in for a slow tenant that lets the test fill queues
/// deterministically and observe how they were coalesced.
struct Gate {
    release: mpsc::Receiver<()>,
    entered: mpsc::Sender<usize>,
}

impl Gate {
    /// `(release, entered, gate)`: drop or send on `release` to let parked
    /// batches finish; `entered` yields every batch size as it starts.
    fn new() -> (mpsc::Sender<()>, mpsc::Receiver<usize>, Self) {
        let (tx, release) = mpsc::channel();
        let (entered, entered_rx) = mpsc::channel();
        (tx, entered_rx, Gate { release, entered })
    }
}

impl BatchModel for Gate {
    fn input_kind(&self) -> InputKind {
        InputKind::Pixels
    }

    fn input_len(&self) -> usize {
        4
    }

    fn output_len(&self, _len: usize) -> usize {
        1
    }

    fn set_quant(&mut self, _cfg: QuantConfig) {}

    fn forward_batch(&mut self, _input: ZooInput<'_>, batch: usize) -> Vec<f32> {
        // A test that does not watch batch sizes drops the receiver.
        let _ = self.entered.send(batch);
        // Blocks until the test sends a token or drops the sender; either
        // way the batch then completes normally.
        let _ = self.release.recv();
        vec![0.0; batch]
    }
}

/// Pixel model with a fixed, known service time, used to seed the
/// admission controller's service-time EWMAs with a predictable value.
struct Sleeper {
    service: Duration,
}

impl BatchModel for Sleeper {
    fn input_kind(&self) -> InputKind {
        InputKind::Pixels
    }

    fn input_len(&self) -> usize {
        4
    }

    fn output_len(&self, _len: usize) -> usize {
        1
    }

    fn set_quant(&mut self, _cfg: QuantConfig) {}

    fn forward_batch(&mut self, _input: ZooInput<'_>, batch: usize) -> Vec<f32> {
        std::thread::sleep(self.service);
        vec![0.0; batch]
    }
}

fn px() -> RequestInput {
    RequestInput::Pixels(vec![0.0; 4])
}

#[test]
fn bounded_queue_backpressure_blocks_submitters() {
    let (gate_tx, _entered, gate) = Gate::new();
    let mut server = Server::new(
        ServerConfig::default()
            .workers(1)
            .max_batch(1)
            .admission(AdmissionConfig::new().queue_capacity(2)),
    );
    server.register("gate", Box::new(gate));
    let handle = server.start().expect("valid config");

    // A submitter thread pushes far more requests than the shard can
    // absorb while the worker is parked on the gate: the job queue is the
    // only buffer, so it holds one executing request plus the queue bound.
    const TOTAL: usize = 24;
    let submitted = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let submitted = &submitted;
        let handle_ref = &handle;
        let submitter = s.spawn(move || {
            let mut pending = Vec::with_capacity(TOTAL);
            for _ in 0..TOTAL {
                pending.push(handle_ref.submit(Request::new("gate", px())).unwrap());
                submitted.fetch_add(1, Ordering::SeqCst);
            }
            pending
        });
        // Give the submitter ample time: with the worker parked it must
        // wedge on the bounded queue well short of TOTAL.
        std::thread::sleep(Duration::from_millis(300));
        let blocked_at = submitted.load(Ordering::SeqCst);
        assert_eq!(
            blocked_at, 3,
            "the submitter must wedge after one executing request plus a \
             queue of 2 (no buffer hides between the queue and the worker)"
        );
        // Release the gate: every parked and queued batch completes, the
        // submitter unblocks, and every request is answered.
        drop(gate_tx);
        let pending = submitter.join().expect("submitter panicked");
        for (i, p) in pending.into_iter().enumerate() {
            assert!(
                p.wait().is_ok(),
                "request {i} must be answered after release"
            );
        }
    });
    let stats = handle.stats();
    assert_eq!(stats.completed, TOTAL as u64);
    assert_eq!(stats.shed, 0, "backpressure mode never sheds");
    assert_eq!(stats.queue_depth, 0);
    handle.shutdown();
}

#[test]
fn a_worker_coalesces_at_most_max_batch_per_drain() {
    let (gate_tx, entered, gate) = Gate::new();
    let mut server = Server::new(ServerConfig::default().workers(1).max_batch(4));
    server.register("gate", Box::new(gate));
    let handle = server.start().expect("valid config");

    // Park the worker on a batch of one, then queue nine more behind it.
    let mut pending = vec![handle.submit(Request::new("gate", px())).unwrap()];
    assert_eq!(entered.recv().unwrap(), 1, "the head runs alone");
    for _ in 0..9 {
        pending.push(handle.submit(Request::new("gate", px())).unwrap());
    }
    drop(gate_tx);
    for (i, p) in pending.into_iter().enumerate() {
        assert!(p.wait().is_ok(), "request {i} must be answered");
    }
    // Each drain stops at max_batch, so the nine queued requests run as
    // 4, 4, 1.
    let sizes: Vec<usize> = entered.try_iter().collect();
    assert_eq!(sizes, vec![4, 4, 1]);
    let stats = handle.stats();
    assert_eq!(stats.batch_histogram, vec![2, 0, 0, 2]);
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.queue_depth, 0);
    handle.shutdown();
}

#[test]
fn an_idle_sibling_serves_another_model_while_one_worker_is_parked() {
    let (gate_tx, entered, gate) = Gate::new();
    let mut server = Server::new(ServerConfig::default().shards(1).workers(2).max_batch(4));
    server.register("gate", Box::new(gate));
    server.register(
        "sleepy",
        Box::new(Sleeper {
            service: Duration::ZERO,
        }),
    );
    let handle = server.start().expect("valid config");
    assert_eq!(handle.shard_of("sleepy"), handle.shard_of("gate"));

    let head = handle.submit(Request::new("gate", px())).unwrap();
    assert_eq!(
        entered.recv().unwrap(),
        1,
        "one worker is parked on the gate"
    );
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let handle = &handle;
        s.spawn(move || {
            let _ = tx.send(handle.infer(Request::new("sleepy", px())));
        });
        let answered = rx.recv_timeout(Duration::from_secs(10));
        let completed = handle.stats().completed;
        // Release before asserting, so a failure cannot leave the scope
        // joining a client stuck behind the gate.
        drop(gate_tx);
        assert!(
            matches!(answered, Ok(Ok(_))),
            "the idle sibling must answer the second model: {answered:?}"
        );
        assert_eq!(completed, 1, "the gated request was still parked");
    });
    assert!(
        head.wait().is_ok(),
        "the parked request completes on release"
    );
    handle.shutdown();
}

#[test]
fn full_queue_sheds_with_typed_overloaded_and_never_silently_drops() {
    let (gate_tx, _entered, gate) = Gate::new();
    let mut server = Server::new(
        ServerConfig::default()
            .workers(1)
            .max_batch(1)
            .admission(AdmissionConfig::new().queue_capacity(1).shed_on_full(true)),
    );
    server.register("gate", Box::new(gate));
    let handle = server.start().expect("valid config");

    // With the worker parked, keep submitting: the pipeline absorbs a
    // bounded handful, after which every submission must come back as a
    // typed Overloaded — submit never blocks and never loses a request.
    let mut pending = Vec::new();
    let mut overloaded = 0usize;
    for i in 0..50 {
        match handle.submit(Request::new("gate", px())) {
            Ok(p) => pending.push((i, p)),
            Err(ServeError::Overloaded { model }) => {
                assert_eq!(model, "gate");
                overloaded += 1;
            }
            Err(other) => panic!("request {i}: unexpected rejection {other:?}"),
        }
    }
    assert!(
        overloaded > 0,
        "50 submissions against a parked worker and a capacity-1 queue must shed"
    );
    assert!(
        !pending.is_empty(),
        "the pipeline must have admitted the first few requests"
    );
    let stats = handle.stats();
    assert_eq!(stats.shed, overloaded as u64, "every shed is counted");

    // Nothing admitted is ever silently dropped: release the gate and every
    // accepted request resolves.
    drop(gate_tx);
    let admitted = pending.len();
    for (i, p) in pending {
        assert!(p.wait().is_ok(), "admitted request {i} must complete");
    }
    let stats = handle.stats();
    assert_eq!(stats.completed, admitted as u64);
    assert_eq!(stats.queue_depth, 0);
    handle.shutdown();
}

#[test]
fn expired_deadlines_get_deadline_exceeded() {
    let (gate_tx, _entered, gate) = Gate::new();
    let mut server = Server::new(ServerConfig::default().workers(1).max_batch(1));
    server.register("gate", Box::new(gate));
    let handle = server.start().expect("valid config");

    // A zero budget expires at submit time: typed error, nothing enqueued.
    let err = match handle.submit(Request::new("gate", px()).deadline(Duration::ZERO)) {
        Err(e) => e,
        Ok(_) => panic!("a zero-budget deadline must be rejected at submit"),
    };
    assert_eq!(
        err,
        ServeError::DeadlineExceeded {
            model: "gate".into()
        }
    );

    // Park the worker, then enqueue a short-deadline request behind it;
    // by the time the worker reaches it the deadline has passed, so the
    // execute-side check answers it with the typed error.
    let head = handle.submit(Request::new("gate", px())).unwrap();
    let doomed = handle
        .submit(Request::new("gate", px()).deadline(Duration::from_millis(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    drop(gate_tx);
    assert!(head.wait().is_ok(), "the parked head request completes");
    assert_eq!(
        doomed.wait().unwrap_err(),
        ServeError::DeadlineExceeded {
            model: "gate".into()
        }
    );
    let stats = handle.stats();
    assert_eq!(
        stats.expired, 2,
        "submit-time and queue-time expiries are both counted"
    );
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.queue_depth, 0);
    handle.shutdown();
}

#[test]
fn slo_admission_orders_traffic_by_priority() {
    // Service time ≥ 30ms; SLO 58ms. After one warm request seeds the
    // EWMA, the idle-shard wait estimate is ≥ 30ms: inside the Normal
    // budget (58ms), strictly outside the Low budget (29ms), bypassed
    // entirely by High.
    let service = Duration::from_millis(30);
    let mut server = Server::new(
        ServerConfig::default()
            .workers(1)
            .max_batch(1)
            .admission(AdmissionConfig::new().slo(Duration::from_millis(58))),
    );
    server.register("sleepy", Box::new(Sleeper { service }));
    let handle = server.start().expect("valid config");

    // Cold shard: the estimate is zero, so the seeding request is admitted.
    handle
        .infer(Request::new("sleepy", px()))
        .expect("cold server admits");

    // Low priority gets half the SLO (29ms) — the ≥30ms estimate busts it.
    let err = handle
        .infer(Request::new("sleepy", px()).priority(Priority::Low))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::Overloaded {
            model: "sleepy".into()
        }
    );
    // Normal gets the full 58ms budget — admitted and served.
    handle
        .infer(Request::new("sleepy", px()))
        .expect("normal fits the full SLO");
    // High bypasses the estimate no matter what.
    handle
        .infer(Request::new("sleepy", px()).priority(Priority::High))
        .expect("high priority bypasses the SLO gate");

    let stats = handle.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 3);
    handle.shutdown();

    // A tight SLO sheds Normal traffic too, while High still lands.
    let mut server = Server::new(
        ServerConfig::default()
            .workers(1)
            .max_batch(1)
            .admission(AdmissionConfig::new().slo(Duration::from_millis(10))),
    );
    server.register("sleepy", Box::new(Sleeper { service }));
    let handle = server.start().expect("valid config");
    handle
        .infer(Request::new("sleepy", px()))
        .expect("cold server admits");
    let err = handle.infer(Request::new("sleepy", px())).unwrap_err();
    assert_eq!(
        err,
        ServeError::Overloaded {
            model: "sleepy".into()
        }
    );
    handle
        .infer(Request::new("sleepy", px()).priority(Priority::High))
        .expect("high priority still lands under a busted SLO");
    let stats = handle.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 2);
    handle.shutdown();
}

#[test]
fn rejections_and_answers_are_printable_errors() {
    // `ServeError: Display + Error` lets callers `?` it out of main and
    // log it without `{:?}`.
    let errs: Vec<Box<dyn std::error::Error>> = vec![
        Box::new(ServeError::Overloaded { model: "m".into() }),
        Box::new(ServeError::DeadlineExceeded { model: "m".into() }),
        Box::new(ServeError::UnknownModel("m".into())),
    ];
    for e in errs {
        let msg = e.to_string();
        assert!(msg.contains('m'), "{msg}");
        assert!(
            !msg.contains("ServeError"),
            "Display must not be Debug: {msg}"
        );
    }
}
