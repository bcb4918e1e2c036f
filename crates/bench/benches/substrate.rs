//! Microbenchmarks of the substrate crates: event engine, CPU scheduler,
//! pools, broker, RNG, statistics, the span recorder, and the model
//! fitter.
//!
//! Run with `cargo bench -p dcm-bench --bench substrate`. Each bench is
//! timed as `SAMPLES` samples of `ITERS` calls and prints one line:
//!
//! ```text
//! bench: engine_schedule_run_10k ... median 425.100 µs  min 412.300 µs  (15 samples x 20 iters)
//! ```

use std::hint::black_box;
use std::time::Instant;

use dcm_bus::{Broker, GroupConsumer, Retention};
use dcm_model::concurrency::{fit_throughput_curve, ConcurrencyModel, FitOptions};
use dcm_ntier::cpu::CpuScheduler;
use dcm_ntier::ids::RequestId;
use dcm_ntier::law::reference;
use dcm_ntier::pool::Pool;
use dcm_ntier::spans::{Span, SpanStatus};
use dcm_obs::recorder::{SamplerConfig, SpanRecorder};
use dcm_sim::engine::Engine;
use dcm_sim::rng::SimRng;
use dcm_sim::stats::{OnlineStats, P2Quantile};
use dcm_sim::time::SimTime;

const SAMPLES: usize = 15;
const ITERS: u32 = 20;

/// Times `f` as `SAMPLES` batches of `ITERS` calls (after one warm-up
/// batch) and prints the median and fastest per-call time.
fn bench<O>(name: &str, mut f: impl FnMut() -> O) {
    let mut batch = || {
        let start = Instant::now();
        for _ in 0..ITERS {
            black_box(f());
        }
        start.elapsed().as_secs_f64() / f64::from(ITERS)
    };
    batch();
    let mut times: Vec<f64> = (0..SAMPLES).map(|_| batch()).collect();
    times.sort_by(f64::total_cmp);
    println!(
        "bench: {name} ... median {:.3} µs  min {:.3} µs  ({SAMPLES} samples x {ITERS} iters)",
        times[SAMPLES / 2] * 1e6,
        times[0] * 1e6,
    );
}

fn bench_engine() {
    bench("engine_schedule_run_10k", || {
        let mut engine: Engine<u64> = Engine::new();
        let mut world = 0u64;
        for i in 0..10_000u64 {
            engine.schedule_at(SimTime::from_nanos(i), |w: &mut u64, _| *w += 1);
        }
        engine.run(&mut world);
        black_box(world)
    });
    // The timeout pattern that motivated the slot/generation scheme: every
    // request schedules a guard event that is almost always cancelled before
    // it fires (a completion supersedes it). 10k schedules, 9k cancels.
    bench("engine_cancel_heavy_10k", || {
        let mut engine: Engine<u64> = Engine::new();
        let mut world = 0u64;
        let mut timeouts = Vec::with_capacity(10_000);
        for i in 0..10_000u64 {
            timeouts.push(
                engine.schedule_at(SimTime::from_nanos(1_000_000 + i), |w: &mut u64, _| *w += 1),
            );
            engine.schedule_at(SimTime::from_nanos(i), |w: &mut u64, _| *w += 1);
        }
        for (i, id) in timeouts.into_iter().enumerate() {
            if i % 10 != 0 {
                engine.cancel(id);
            }
        }
        engine.run(&mut world);
        black_box(world)
    });
    // Churn pattern: cancel-then-reschedule inside a bounded live window,
    // exercising slot reuse (or, before the rework, HashSet insert/remove).
    bench("engine_timeout_churn_10k", || {
        let mut engine: Engine<u64> = Engine::new();
        let mut world = 0u64;
        let mut pending = std::collections::VecDeque::with_capacity(64);
        for i in 0..10_000u64 {
            if pending.len() == 64 {
                let id = pending.pop_front().expect("non-empty");
                engine.cancel(id);
            }
            pending.push_back(
                engine.schedule_at(SimTime::from_nanos(i + 100_000), |w: &mut u64, _| *w += 1),
            );
        }
        engine.run(&mut world);
        black_box(world)
    });
}

fn bench_cpu_scheduler() {
    let law = reference::mysql();
    bench("cpu_saturated_1k_completions", || {
        let mut cpu = CpuScheduler::new(law);
        let mut now = SimTime::ZERO;
        for i in 0..36u64 {
            cpu.add_burst(now, RequestId::new(i), law.s0());
        }
        for next_id in 36u64..1036 {
            let (at, _) = cpu.next_completion(now).expect("busy cpu");
            now = at;
            let done = cpu.pop_completed(now).expect("due");
            black_box(done);
            cpu.add_burst(now, RequestId::new(next_id), law.s0());
        }
    });
}

fn bench_pool() {
    bench("pool_acquire_release_handoff", || {
        let mut pool = Pool::new(16);
        for i in 0..64u64 {
            pool.try_acquire(RequestId::new(i));
        }
        for _ in 0..48 {
            black_box(pool.release());
        }
        black_box(pool.in_use())
    });
}

fn bench_broker() {
    bench("broker_produce_consume_1k", || {
        let mut broker: Broker<u64> = Broker::new();
        broker
            .create_topic("t", 4, Retention::UNBOUNDED)
            .expect("fresh topic");
        for i in 0..1000u64 {
            broker
                .produce("t", i, Some(format!("k{}", i % 16)), i)
                .expect("topic exists");
        }
        let mut consumer = GroupConsumer::new("g", "t", &broker).expect("topic exists");
        let batch = consumer.poll(&broker, 2000).expect("topic exists");
        black_box(batch.len())
    });
}

fn bench_rng_and_stats() {
    bench("rng_100k_doubles", || {
        let mut rng = SimRng::seed_from(1);
        let mut acc = 0.0;
        for _ in 0..100_000 {
            acc += rng.next_f64();
        }
        black_box(acc)
    });
    bench("stats_online_p2_100k", || {
        let mut rng = SimRng::seed_from(2);
        let mut stats = OnlineStats::new();
        let mut p95 = P2Quantile::new(0.95);
        for _ in 0..100_000 {
            let x = rng.next_f64();
            stats.record(x);
            p95.record(x);
        }
        black_box((stats.mean(), p95.estimate()))
    });
}

fn bench_recorder() {
    let spans: Vec<Span> = (0..10_000u64)
        .map(|i| Span {
            request: RequestId::new(i / 3),
            tier: (i % 3) as usize,
            server: dcm_ntier::ids::ServerId::new(i % 7),
            arrived_at: SimTime::from_nanos(i * 1_000),
            started_at: SimTime::from_nanos(i * 1_000 + 350),
            finished_at: SimTime::from_nanos(i * 1_000 + 4_200),
            status: SpanStatus::Completed,
        })
        .collect();
    // The zero-cost-when-disabled claim, as a tracked number.
    bench("recorder_off_10k_spans", || {
        let mut r = SpanRecorder::off();
        for s in &spans {
            r.record(black_box(s));
        }
        black_box(r.stats())
    });
    bench("recorder_sampled_10k_spans", || {
        let mut r = SpanRecorder::new(SamplerConfig {
            rate: 0.1,
            seed: 7,
            capacity: 4096,
        });
        for s in &spans {
            r.record(black_box(s));
        }
        black_box(r.stats())
    });
}

fn bench_model_fit() {
    let truth = ConcurrencyModel::new(0.0284, 0.016, 7.0e-5, 1.0, 1);
    let data: Vec<(f64, f64)> = (1..=120)
        .map(|n| (f64::from(n), truth.predict_throughput(f64::from(n))))
        .collect();
    bench("lm_fit_throughput_curve_120pts", || {
        let report =
            fit_throughput_curve(black_box(&data), 1, FitOptions::default()).expect("fits");
        black_box(report.model.optimal_concurrency())
    });
}

fn main() {
    bench_engine();
    bench_cpu_scheduler();
    bench_pool();
    bench_broker();
    bench_rng_and_stats();
    bench_recorder();
    bench_model_fit();
}
