//! Hand-offs timed across two threads: the transport floor and the
//! three wake-ups a message crosses inside a dispatcher. Each reports
//! the p50 of [`ROUNDS`] one-at-a-time hand-offs to a parked receiver.

use std::io::{Read, Write};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsd_concurrent::{FifoQueue, PoolConfig, ThreadPool};
use wsd_core::rt::ReactorFrontEnd;
use wsd_http::{duplex, HttpClient, Limits, Request, Response, Status};
use wsd_telemetry::Scope;

use crate::stats::{percentile, sorted};

/// Hand-offs per measurement.
const ROUNDS: usize = 400;
/// Pause between hand-offs, long enough for the receiver to park again.
const PARK: Duration = Duration::from_micros(150);

fn p50_us(samples: Vec<Duration>) -> f64 {
    let us = sorted(samples.iter().map(|d| d.as_nanos() as f64 / 1e3).collect());
    percentile(&us, 50.0)
}

/// All four hand-off metrics.
pub fn measure() -> Vec<(&'static str, f64)> {
    vec![
        ("http.pipe_roundtrip_us", pipe_roundtrip()),
        ("concurrent.queue_handoff_us", queue_handoff()),
        ("concurrent.pool_execute_us", pool_execute()),
        ("concurrent.reactor_dispatch_us", reactor_dispatch()),
    ]
}

/// One byte there and back over a bare `duplex` pipe.
fn pipe_roundtrip() -> f64 {
    let (mut near, mut far) = duplex(64 * 1024);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut byte = [0u8; 1];
            while far.read_exact(&mut byte).is_ok() {
                if far.write_all(&byte).is_err() {
                    break;
                }
            }
        });
        let mut byte = [7u8; 1];
        let samples = (0..ROUNDS)
            .map(|_| {
                std::thread::sleep(PARK);
                let t = Instant::now();
                near.write_all(&byte).expect("pipe write");
                near.read_exact(&mut byte).expect("pipe read");
                t.elapsed()
            })
            .collect();
        near.shutdown();
        p50_us(samples)
    })
}

/// `push` until a consumer blocked in `pop_timeout_batch` has the item.
fn queue_handoff() -> f64 {
    let queue: FifoQueue<Instant> = FifoQueue::bounded(16);
    std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut samples = Vec::with_capacity(ROUNDS);
            while let Ok(batch) = queue.pop_timeout_batch(Duration::from_secs(5), 16) {
                samples.extend(batch.iter().map(Instant::elapsed));
            }
            samples
        });
        for _ in 0..ROUNDS {
            std::thread::sleep(PARK);
            queue.push(Instant::now()).expect("queue open");
        }
        queue.close();
        p50_us(consumer.join().expect("queue consumer panicked"))
    })
}

/// `execute` until the job starts on an idle pool worker.
fn pool_execute() -> f64 {
    let pool = ThreadPool::new(PoolConfig::fixed("bench-handoff", 2)).expect("pool");
    let (tx, rx) = mpsc::channel();
    for _ in 0..ROUNDS {
        std::thread::sleep(PARK);
        let (tx, t) = (tx.clone(), Instant::now());
        pool.execute(move || tx.send(t.elapsed()).expect("receiver alive"))
            .expect("pool open");
    }
    drop(tx);
    let samples = rx.iter().collect();
    pool.shutdown();
    p50_us(samples)
}

/// Request bytes written until the `ReactorFrontEnd` handler runs.
fn reactor_dispatch() -> f64 {
    let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("bench-reactor", 2)).expect("pool"));
    let front = ReactorFrontEnd::start("bench-reactor", Arc::clone(&pool), &Scope::noop());
    let (tx, rx) = mpsc::channel();
    let (near, far) = duplex(64 * 1024);
    front.serve(
        far,
        Limits::default(),
        Arc::new(move |_req| {
            tx.send(Instant::now()).expect("receiver alive");
            Response::empty(Status::ACCEPTED)
        }),
    );
    let mut client = HttpClient::new(near);
    let request = Request::soap_post("bench", "/", "text/xml", b"<x/>".to_vec());
    let samples = (0..ROUNDS)
        .map(|_| {
            std::thread::sleep(PARK);
            let t = Instant::now();
            client.call(&request).expect("reactor answers");
            rx.recv().expect("handler ran").duration_since(t)
        })
        .collect();
    drop(client);
    front.shutdown();
    pool.shutdown();
    p50_us(samples)
}
