//! Property tests of the simulation substrate: clock arithmetic and
//! wakeup ordering, geometry/proximity symmetry, link-model monotonicity,
//! and world event-consistency under arbitrary movement sequences.

use std::sync::Arc;
use std::time::Duration;

use morena_nfc_sim::clock::{Clock, SimInstant, VirtualClock, WaitOutcome, WaitSignal};
use morena_nfc_sim::geometry::Point;
use morena_nfc_sim::link::LinkModel;
use morena_nfc_sim::tag::{TagEmulator, TagUid, Type2Tag, Type4Tag};
use morena_nfc_sim::world::{NfcEvent, World};
use morena_obs::check::{self, check, CASES};
use morena_obs::Rng;

/// Advancing a virtual clock by any sequence of steps lands exactly
/// on the sum, and never goes backwards along the way.
#[test]
fn virtual_clock_advance_is_additive() {
    check(
        "virtual_clock_advance_is_additive",
        CASES,
        |rng| check::vec(rng, 1..20, |rng| rng.range(0..10_000_000)),
        |steps| {
            let clock = VirtualClock::new();
            let mut total = 0u64;
            let mut last = clock.now();
            for step in steps {
                clock.advance(Duration::from_nanos(step));
                total += step;
                let now = clock.now();
                assert!(now >= last);
                last = now;
            }
            assert_eq!(clock.now(), SimInstant::from_nanos(total));
        },
    );
}

/// A waiter with a deadline inside the advanced range always times
/// out; one with a deadline beyond it never wakes.
#[test]
fn virtual_wait_until_fires_exactly_on_crossing() {
    check(
        "virtual_wait_until_fires_exactly_on_crossing",
        CASES,
        |rng| (rng.range(1..100), rng.range(1..200)),
        |(deadline_ms, advance_ms)| {
            let clock = Arc::new(VirtualClock::new());
            let signal = Arc::new(WaitSignal::new());
            let seen = signal.generation();
            let deadline = SimInstant::EPOCH + Duration::from_millis(deadline_ms);
            let c2 = Arc::clone(&clock);
            let s2 = Arc::clone(&signal);
            let waiter = std::thread::spawn(move || c2.wait_until(&s2, seen, deadline));
            std::thread::sleep(Duration::from_millis(2));
            clock.advance(Duration::from_millis(advance_ms));
            if advance_ms >= deadline_ms {
                assert_eq!(waiter.join().unwrap(), WaitOutcome::TimedOut);
            } else {
                // Not yet crossed: the waiter must still be blocked. Wake it
                // via the signal to finish the test cleanly.
                std::thread::sleep(Duration::from_millis(5));
                assert!(!waiter.is_finished());
                signal.notify();
                assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
            }
        },
    );
}

/// saturating arithmetic on SimInstant never panics and preserves
/// ordering.
#[test]
fn sim_instant_arithmetic_is_total() {
    check(
        "sim_instant_arithmetic_is_total",
        CASES,
        |rng| (rng.next_u64(), rng.next_u64()),
        |(a, d)| {
            let t = SimInstant::from_nanos(a);
            let later = t + Duration::from_nanos(d);
            assert!(later >= t);
            assert_eq!(t.saturating_since(later), Duration::ZERO);
            let gap = later.saturating_since(t);
            assert!(gap <= Duration::from_nanos(d));
        },
    );
}

/// Distance is symmetric, non-negative, and satisfies the triangle
/// inequality.
#[test]
fn geometry_is_a_metric() {
    check(
        "geometry_is_a_metric",
        CASES,
        |rng| {
            let mut point =
                || Point::new(rng.range_f64(-100.0..100.0), rng.range_f64(-100.0..100.0));
            (point(), point(), point())
        },
        |(a, b, c)| {
            assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-9);
            assert!(a.distance_to(b) >= 0.0);
            assert!(a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9);
        },
    );
}

/// Link failure probability is monotone in distance and clamped to
/// [0, 1]; latency is monotone in message size.
#[test]
fn link_model_is_monotone() {
    check(
        "link_model_is_monotone",
        CASES,
        |rng| {
            let (d1, d2) = (rng.range_f64(0.0..0.1), rng.range_f64(0.0..0.1));
            (d1, d2, check::size(rng, 0..10_000), check::size(rng, 0..10_000))
        },
        |(d1, d2, n1, n2)| {
            let model = LinkModel::realistic();
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            assert!(model.failure_prob(lo) <= model.failure_prob(hi));
            assert!((0.0..=1.0).contains(&model.failure_prob(d1)));
            let (small, big) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
            assert!(model.exchange_latency(small) <= model.exchange_latency(big));
        },
    );
}

/// Arbitrary command bytes never panic the Type 2 emulator, and its
/// persistent memory only changes through valid WRITE commands.
#[test]
fn type2_emulator_survives_command_fuzz() {
    check(
        "type2_emulator_survives_command_fuzz",
        CASES,
        |rng| check::vec(rng, 0..60, |rng| check::bytes(rng, 0..12)),
        |commands| {
            let mut tag = Type2Tag::ntag215(TagUid::from_seed(1));
            for command in &commands {
                let _ = tag.transceive(command); // must not panic
            }
            tag.on_field_lost();
            // The tag remains structurally sound: capacity is stable and a
            // fresh format restores a readable blank state.
            assert_eq!(tag.ndef_capacity(), 499);
            tag.format_ndef();
            let mut link = morena_nfc_sim::proto::DirectLink::new(&mut tag);
            let bytes =
                morena_nfc_sim::proto::read_ndef(&mut link, morena_nfc_sim::tag::TagTech::Type2)
                    .unwrap();
            assert!(bytes.is_empty());
        },
    );
}

/// Arbitrary APDUs never panic the Type 4 emulator, and the session
/// state machine still works afterwards.
#[test]
fn type4_emulator_survives_apdu_fuzz() {
    check(
        "type4_emulator_survives_apdu_fuzz",
        CASES,
        |rng| check::vec(rng, 0..60, |rng| check::bytes(rng, 0..20)),
        |commands| {
            let mut tag = Type4Tag::new(TagUid::from_seed(2), 512);
            for command in &commands {
                let _ = tag.transceive(command); // must not panic
            }
            tag.on_field_lost();
            // A clean session still reads the (possibly fuzz-written) file.
            let mut link = morena_nfc_sim::proto::DirectLink::new(&mut tag);
            let result =
                morena_nfc_sim::proto::read_ndef(&mut link, morena_nfc_sim::tag::TagTech::Type4);
            // NLEN might have been fuzz-corrupted to exceed the file: both a
            // clean read and a protocol error are acceptable; a panic is not.
            let _ = result;
        },
    );
}

/// The simulation is deterministic: the same seed and the same
/// single-threaded interaction sequence produce byte-identical radio
/// statistics and outcomes.
#[test]
fn same_seed_same_world_history() {
    check(
        "same_seed_same_world_history",
        CASES,
        |rng| (rng.next_u64(), check::vec(rng, 1..30, |rng| rng.random_bool(0.5))),
        |(seed, ops)| {
            let run = |seed: u64| {
                let world = World::with_link(
                    VirtualClock::shared(),
                    LinkModel {
                        base_failure_prob: 0.3,
                        edge_failure_prob: 0.3,
                        ..LinkModel::instant()
                    },
                    seed,
                );
                let phone = world.add_phone("det");
                let uid = world.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(1))));
                world.tap_tag(uid, phone);
                let nfc = morena_nfc_sim::controller::NfcHandle::new(world.clone(), phone);
                let mut outcomes = Vec::new();
                for &write in &ops {
                    let result = if write {
                        nfc.transceive(uid, &[0xA2, 5, 1, 2, 3, 4]).is_ok()
                    } else {
                        nfc.transceive(uid, &[0x30, 4]).is_ok()
                    };
                    outcomes.push(result);
                }
                (outcomes, world.radio_stats())
            };
            let (outcomes_a, stats_a) = run(seed);
            let (outcomes_b, stats_b) = run(seed);
            assert_eq!(outcomes_a, outcomes_b);
            assert_eq!(stats_a, stats_b);
        },
    );
}

/// Under any sequence of tag movements, the event stream alternates
/// strictly between enter and leave for each phone (no double
/// enters, no leave before enter), and the final event agrees with
/// the final geometric state.
#[test]
fn world_events_alternate_consistently() {
    check(
        "world_events_alternate_consistently",
        CASES,
        |rng| check::vec(rng, 1..25, |rng| rng.range_f64(0.0..0.2)),
        |distances| {
            let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 7);
            let phone = world.add_phone("prop");
            let uid = world.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(1))));
            let rx = world.subscribe(phone);
            for d in &distances {
                world.place_tag_near(uid, phone, *d);
            }
            let range = world.link_model().nfc_range_m;
            let events: Vec<NfcEvent> = rx.try_iter().collect();
            let mut inside = false;
            for event in &events {
                match event {
                    NfcEvent::TagEntered { .. } => {
                        assert!(!inside, "double enter");
                        inside = true;
                    }
                    NfcEvent::TagLeft { .. } => {
                        assert!(inside, "leave before enter");
                        inside = false;
                    }
                    _ => {}
                }
            }
            let geometrically_inside = distances.last().map(|d| *d <= range).unwrap_or(false);
            assert_eq!(inside, geometrically_inside);
            assert_eq!(world.tag_in_range(phone, uid), geometrically_inside);
        },
    );
}

/// The keyed per-tag lookup agrees with the full scan of the phone's
/// field for any placement — including a tag exactly on the field's
/// edge (`None` below) — and for tags removed from or never added to
/// the world.
#[test]
fn keyed_tag_lookup_matches_the_scan() {
    check(
        "keyed_tag_lookup_matches_the_scan",
        CASES,
        |rng| {
            let distance = |rng: &mut Rng| rng.random_bool(0.5).then(|| rng.range_f64(0.0..0.2));
            let placements = check::vec(rng, 1..25, |rng| (distance(rng), distance(rng)));
            (placements, rng.random_bool(0.5))
        },
        |(placements, take_one)| {
            let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 7);
            let phone = world.add_phone("prop");
            // At the origin, a tag placed `d` away is exactly `d` away.
            world.set_phone_position(phone, Point::new(0.0, 0.0));
            let t2 = world.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(1))));
            let t4 = world.add_tag(Box::new(Type4Tag::new(TagUid::from_seed(2), 256)));
            let never_added = TagUid::from_seed(3);
            let range = world.link_model().nfc_range_m;
            let agrees = |uid: TagUid| {
                let scanned =
                    world.tags_in_range(phone).into_iter().find(|(u, _)| *u == uid).map(|(_, t)| t);
                world.tag_tech_in_range(phone, uid) == scanned
            };
            for (d2, d4) in &placements {
                world.place_tag_near(t2, phone, d2.unwrap_or(range));
                world.place_tag_near(t4, phone, d4.unwrap_or(range));
                for uid in [t2, t4, never_added] {
                    assert!(agrees(uid));
                }
            }
            if take_one {
                world.take_tag(t2);
                assert!(agrees(t2));
                assert_eq!(world.tag_tech_in_range(phone, t2), None);
            }
            assert_eq!(world.tag_tech_in_range(phone, never_added), None);
        },
    );
}
