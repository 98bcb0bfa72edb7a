//! Swarm stress: many phones, many tags, many references, all active at
//! once over a noisy link — the "industrial scalability" frontier the
//! paper's related-work section draws a line at. The middleware must
//! stay correct (every operation resolves exactly once, caches converge
//! to the last write per tag) even if it was never designed for
//! warehouse-scale deployments.
//!
//! Every scenario runs on the sharded worker pool, which multiplexes
//! all far-reference loops onto a bounded number of threads.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use morena::core::policy::{Backoff, Policy};
use morena::obs::{FlightRecorder, Health, Sampler, SamplerConfig};
use morena::prelude::*;

fn swarm_config() -> Policy {
    Policy::new()
        .with_timeout(Duration::from_secs(60))
        .with_backoff(Backoff::exponential(Duration::from_micros(300), Duration::from_millis(4)))
}

/// Black-box the heavyweight scenarios: a flight recorder tees into the
/// world's event stream and a panic (any failing assertion below) dumps
/// the pre-failure event sequence to `MORENA_FLIGHT_DIR` (CI uploads
/// that directory as an artifact on failure). The sampler also feeds
/// the recorder's health ring so the dump carries verdict history.
fn flight_harness(world: &World) -> Sampler {
    let flight = Arc::new(FlightRecorder::default());
    world.obs().attach(flight.clone());
    let dump_dir = std::env::var_os("MORENA_FLIGHT_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("morena-flight"));
    morena::obs::install_panic_hook(&flight, dump_dir.clone());
    let clock = Arc::clone(world.clock());
    Sampler::spawn(
        Arc::clone(world.obs()),
        move || clock.now().as_nanos(),
        SamplerConfig {
            interval: Duration::from_millis(50),
            flight: Some(flight),
            dump_dir: Some(dump_dir),
            ..SamplerConfig::default()
        },
    )
}

/// 64 far references (8 phones × 8 tags) with a backlog each, over a
/// 10%-lossy link. Every operation must resolve exactly once and every
/// tag must converge to its last write.
fn many_phones_many_tags(policy: ExecutionPolicy, seed: u64) {
    const PHONES: usize = 8;
    const TAGS_PER_PHONE: usize = 8;
    const OPS_PER_TAG: usize = 2;

    let link = LinkModel {
        setup_latency: Duration::from_micros(100),
        per_byte_latency: Duration::from_micros(1),
        base_failure_prob: 0.10,
        edge_failure_prob: 0.10,
        ..LinkModel::realistic()
    };
    let world = World::with_link(SystemClock::shared(), link, seed);
    let mut sampler = flight_harness(&world);

    let (done_tx, done_rx) = channel();
    let mut references = Vec::new();
    let mut expected = Vec::new();

    for p in 0..PHONES {
        let phone = world.add_phone(&format!("phone-{p}"));
        let ctx = MorenaContext::headless_with(&world, phone, policy);
        for t in 0..TAGS_PER_PHONE {
            let uid =
                world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed((p * 100 + t) as u32))));
            // Each phone keeps its tags at distinct offsets so fields do
            // not overlap between phones.
            world.tap_tag(uid, phone);
            let reference = TagReference::with_policy(
                &ctx,
                uid,
                TagTech::Type2,
                Arc::new(StringConverter::plain_text()),
                swarm_config(),
            );
            for op in 0..OPS_PER_TAG {
                let done_tx = done_tx.clone();
                let payload = format!("p{p}-t{t}-op{op}");
                reference.write(
                    payload.clone(),
                    move |_| done_tx.send(payload).unwrap(),
                    |_, f| panic!("swarm write failed permanently: {f}"),
                );
            }
            expected.push((reference.clone(), format!("p{p}-t{t}-op{}", OPS_PER_TAG - 1)));
            references.push(reference);
        }
    }

    // Every queued operation must complete exactly once.
    let total = PHONES * TAGS_PER_PHONE * OPS_PER_TAG;
    let mut completions = Vec::with_capacity(total);
    for _ in 0..total {
        completions.push(done_rx.recv_timeout(Duration::from_secs(60)).expect("op completes"));
    }
    assert!(done_rx.try_recv().is_err(), "no duplicate completions");
    completions.sort();
    let mut wanted: Vec<String> = (0..PHONES)
        .flat_map(|p| {
            (0..TAGS_PER_PHONE)
                .flat_map(move |t| (0..OPS_PER_TAG).map(move |op| format!("p{p}-t{t}-op{op}")))
        })
        .collect();
    wanted.sort();
    assert_eq!(completions, wanted);

    // Every tag converged to its last write.
    for (reference, last) in &expected {
        let value = reference.read_sync(Duration::from_secs(60)).expect("final read succeeds");
        assert_eq!(value.as_deref(), Some(last.as_str()));
        let stats = reference.stats().snapshot();
        assert_eq!(stats.succeeded, OPS_PER_TAG as u64 + 1); // + the final read
        assert_eq!(stats.timed_out, 0);
        assert_eq!(stats.failed, 0);
    }
    for reference in references {
        reference.close();
    }

    // The CI gate: after a clean drain and shutdown the watchdog must
    // not see a stalled component anywhere in the swarm.
    let snapshot = world.obs().inspector().snapshot(world.clock().now().as_nanos());
    let report =
        Watchdog::default().evaluate_with_metrics(&snapshot, &world.obs().metrics().snapshot());
    assert_ne!(
        report.health,
        Health::Stalled,
        "watchdog reported Stalled at shutdown: {:?}",
        report.findings
    );
    sampler.stop();
}

#[test]
fn many_phones_many_tags_all_resolve_sharded() {
    many_phones_many_tags(ExecutionPolicy::Sharded { workers: 4 }, 4243);
}

/// One phone, several tags that keep entering and leaving while a
/// backlog drains — connectivity churn at queue scale.
fn roaming_tags_converge(policy: ExecutionPolicy, seed: u64) {
    const TAGS: usize = 4;
    const OPS: usize = 4;

    let world = World::with_link(SystemClock::shared(), LinkModel::reliable(), seed);
    let phone = world.add_phone("roamer");
    let ctx = MorenaContext::headless_with(&world, phone, policy);

    let (done_tx, done_rx) = channel();
    let references: Vec<_> = (0..TAGS)
        .map(|t| {
            let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(500 + t as u32))));
            let reference = TagReference::with_policy(
                &ctx,
                uid,
                TagTech::Type2,
                Arc::new(StringConverter::plain_text()),
                swarm_config(),
            );
            for op in 0..OPS {
                let done_tx = done_tx.clone();
                reference.write(
                    format!("t{t}-op{op}"),
                    move |_| done_tx.send(()).unwrap(),
                    |_, f| panic!("roaming write failed: {f}"),
                );
            }
            (uid, reference)
        })
        .collect();

    // Tags take turns in the field, several rounds, with gaps.
    let mut scenario = Scenario::new();
    for round in 0..6 {
        for (i, (uid, _)) in references.iter().enumerate() {
            let at = Duration::from_millis((round * TAGS + i) as u64 * 30);
            let uid = *uid;
            scenario = scenario
                .at(at, |s| s.tap_tag(uid, phone))
                .at(at + Duration::from_millis(25), |s| s.remove_tag(uid));
        }
    }
    scenario.spawn(&world).join().expect("scenario");

    // Give stragglers one final generous window each.
    for (uid, _) in &references {
        world.tap_tag(*uid, phone);
        world.clock().sleep(Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(30));
        world.remove_tag_from_field(*uid);
    }
    // Everything must have drained by now (or drain on these last taps).
    let total = TAGS * OPS;
    let mut done = 0;
    while done < total {
        match done_rx.recv_timeout(Duration::from_secs(5)) {
            Ok(()) => done += 1,
            Err(_) => {
                // Provide connectivity until the backlog clears.
                for (uid, _) in &references {
                    world.tap_tag(*uid, phone);
                }
            }
        }
    }
    for (_, reference) in &references {
        assert_eq!(reference.queue_len(), 0);
        reference.close();
    }
}

#[test]
fn swarm_with_roaming_tags_still_converges_sharded() {
    roaming_tags_converge(ExecutionPolicy::Sharded { workers: 2 }, 78);
}

/// A discoverer watching a long stream of disposable tags: each one is
/// detected, written, and its reference closed — the lifecycle of a
/// warehouse conveyor. The discoverer's identity map must stay bounded
/// by the *live* reference population instead of accumulating one dead
/// entry (and one stopped event loop) per retired tag.
fn discovery_map_stays_bounded(policy: ExecutionPolicy, seed: u64) {
    const GENERATIONS: usize = 12;

    let world = World::with_link(SystemClock::shared(), LinkModel::reliable(), seed);
    let phone = world.add_phone("conveyor");
    let ctx = MorenaContext::headless_with(&world, phone, policy);

    struct Notify(std::sync::mpsc::Sender<TagUid>);
    impl DiscoveryListener<StringConverter> for Notify {
        fn on_tag_detected(&self, reference: TagReference<StringConverter>) {
            self.0.send(reference.uid()).unwrap();
        }
        fn on_tag_redetected(&self, reference: TagReference<StringConverter>) {
            self.0.send(reference.uid()).unwrap();
        }
        fn on_empty_tag(&self, reference: TagReference<StringConverter>) {
            self.0.send(reference.uid()).unwrap();
        }
    }

    let (tx, rx) = channel();
    let disco =
        TagDiscoverer::new(&ctx, Arc::new(StringConverter::plain_text()), Arc::new(Notify(tx)));

    for generation in 0..GENERATIONS {
        let uid =
            world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(900 + generation as u32))));
        world.tap_tag(uid, phone);
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)).expect("sighting"), uid);
        let reference = disco.reference_for(uid).expect("reference for sighted tag");
        reference.write_sync(format!("gen-{generation}"), Duration::from_secs(30)).unwrap();
        world.remove_tag_from_field(uid);
        reference.close();
        // At most the reference just closed (swept on the next sighting)
        // plus the one for the current generation may linger.
        let live = disco.references().len();
        assert!(live <= 2, "identity map grew to {live} entries at generation {generation}");
    }
    disco.stop();
}

#[test]
fn swarm_discovery_map_stays_bounded_sharded() {
    discovery_map_stays_bounded(ExecutionPolicy::Sharded { workers: 2 }, 92);
}
