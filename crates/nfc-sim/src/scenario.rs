//! Scripted physical timelines: "at t=2s, tap tag A on phone 1 and hold
//! it for 800 ms" — the simulation-side replacement for the humans that
//! would wave phones over stickers in the paper's demo.
//!
//! A [`Scenario`] is a list of timestamped actions. It can be run
//! synchronously ([`Scenario::run`]) or on a driver thread
//! ([`Scenario::spawn`]), in both cases pacing itself on the world's
//! clock, so virtual-clock tests execute instantly and real-clock examples
//! play out in real time.

use std::time::Duration;

use crate::geometry::Point;
use crate::tag::TagUid;
use crate::world::{PhoneId, World};

/// One scripted physical action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Move a tag into a phone's field.
    TapTag {
        /// The tag to move.
        uid: TagUid,
        /// The phone to present it to.
        phone: PhoneId,
    },
    /// Pull a tag away from everything.
    RemoveTag {
        /// The tag to remove.
        uid: TagUid,
    },
    /// Move a tag to an absolute position.
    MoveTag {
        /// The tag to move.
        uid: TagUid,
        /// Destination.
        to: Point,
    },
    /// Move a phone to an absolute position.
    MovePhone {
        /// The phone to move.
        phone: PhoneId,
        /// Destination.
        to: Point,
    },
    /// Bring one phone next to another (into beam range).
    BringTogether {
        /// The stationary phone.
        a: PhoneId,
        /// The phone that moves.
        b: PhoneId,
    },
    /// Move a phone far from everything.
    Separate {
        /// The phone that leaves.
        phone: PhoneId,
    },
    /// Place a tag at an exact distance from a phone's current position.
    MoveTagNear {
        /// The tag to move.
        uid: TagUid,
        /// The phone to measure from.
        phone: PhoneId,
        /// Distance in meters.
        distance: f64,
    },
}

/// A timed script of [`Action`]s against a [`World`].
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use morena_nfc_sim::clock::VirtualClock;
/// use morena_nfc_sim::scenario::Scenario;
/// use morena_nfc_sim::tag::{TagUid, Type2Tag};
/// use morena_nfc_sim::world::World;
///
/// let world = World::new(VirtualClock::shared());
/// let phone = world.add_phone("alice");
/// let uid = world.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(1))));
///
/// Scenario::new()
///     .at(Duration::from_millis(100), |s| s.tap_tag(uid, phone))
///     .after(Duration::from_millis(500), |s| s.remove_tag(uid))
///     .run(&world);
/// assert!(!world.tag_in_range(phone, uid));
/// ```
#[derive(Debug, Default)]
pub struct Scenario {
    steps: Vec<(Duration, Action)>,
    cursor: Duration,
}

/// Fluent step-adder passed to [`Scenario::at`] / [`Scenario::after`].
#[derive(Debug, Default)]
pub struct StepBuilder {
    actions: Vec<Action>,
}

impl StepBuilder {
    /// Tap `uid` on `phone`.
    pub fn tap_tag(mut self, uid: TagUid, phone: PhoneId) -> StepBuilder {
        self.actions.push(Action::TapTag { uid, phone });
        self
    }

    /// Pull `uid` away from everything.
    pub fn remove_tag(mut self, uid: TagUid) -> StepBuilder {
        self.actions.push(Action::RemoveTag { uid });
        self
    }

    /// Move `uid` to `to`.
    pub fn move_tag(mut self, uid: TagUid, to: Point) -> StepBuilder {
        self.actions.push(Action::MoveTag { uid, to });
        self
    }

    /// Move `phone` to `to`.
    pub fn move_phone(mut self, phone: PhoneId, to: Point) -> StepBuilder {
        self.actions.push(Action::MovePhone { phone, to });
        self
    }

    /// Bring `b` next to `a`.
    pub fn bring_together(mut self, a: PhoneId, b: PhoneId) -> StepBuilder {
        self.actions.push(Action::BringTogether { a, b });
        self
    }

    /// Move `phone` far from everything.
    pub fn separate(mut self, phone: PhoneId) -> StepBuilder {
        self.actions.push(Action::Separate { phone });
        self
    }
}

impl Scenario {
    /// An empty scenario.
    pub fn new() -> Scenario {
        Scenario::default()
    }

    /// Adds actions at an absolute offset from scenario start.
    pub fn at(mut self, t: Duration, build: impl FnOnce(StepBuilder) -> StepBuilder) -> Scenario {
        let steps = build(StepBuilder::default()).actions;
        for action in steps {
            self.steps.push((t, action));
        }
        self.cursor = self.cursor.max(t);
        self
    }

    /// Adds actions `d` after the latest step so far.
    pub fn after(self, d: Duration, build: impl FnOnce(StepBuilder) -> StepBuilder) -> Scenario {
        let t = self.cursor + d;
        self.at(t, build)
    }

    /// Appends a square-wave presence pattern: `uid` taps `phone` and is
    /// pulled away repeatedly, in range for `duty * period` of each cycle,
    /// for `cycles` cycles, starting at the current cursor.
    ///
    /// This is the workload of the EXT-RETRY experiment: a user fumbling a
    /// tag near the reader.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use morena_nfc_sim::clock::VirtualClock;
    /// use morena_nfc_sim::scenario::Scenario;
    /// use morena_nfc_sim::tag::{TagUid, Type2Tag};
    /// use morena_nfc_sim::world::World;
    ///
    /// let world = World::new(VirtualClock::shared());
    /// let phone = world.add_phone("fumbler");
    /// let uid = world.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(1))));
    /// // In range 30% of every 200 ms, five times.
    /// Scenario::new()
    ///     .presence_duty_cycle(uid, phone, Duration::from_millis(200), 0.3, 5)
    ///     .run(&world);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < duty <= 1.0`.
    pub fn presence_duty_cycle(
        mut self,
        uid: TagUid,
        phone: PhoneId,
        period: Duration,
        duty: f64,
        cycles: usize,
    ) -> Scenario {
        assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
        let on = period.mul_f64(duty);
        let start = self.cursor;
        for i in 0..cycles {
            let t0 = start + period.saturating_mul(i as u32);
            self.steps.push((t0, Action::TapTag { uid, phone }));
            if duty < 1.0 {
                self.steps.push((t0 + on, Action::RemoveTag { uid }));
            }
        }
        self.cursor = start + period.saturating_mul(cycles as u32);
        self
    }

    /// Appends a continuous sweep: the tag approaches `phone` from
    /// outside the field to `closest` meters away, dwells, and retreats —
    /// a realistic swipe gesture discretized into `steps` positions each
    /// way. Exercises the distance-dependent part of the link model.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn sweep_tag(
        mut self,
        uid: TagUid,
        phone: PhoneId,
        closest: f64,
        approach: Duration,
        dwell: Duration,
        steps: usize,
    ) -> Scenario {
        assert!(steps > 0, "a sweep needs at least one step");
        let start = self.cursor;
        let far = 0.2; // comfortably outside any NFC field
        let step_d = approach / steps as u32;
        for i in 0..=steps {
            let f = i as f64 / steps as f64;
            let distance = far + (closest - far) * f;
            self.steps.push((
                start + step_d.saturating_mul(i as u32),
                Action::MoveTagNear { uid, phone, distance },
            ));
        }
        let retreat_start = start + approach + dwell;
        for i in 0..=steps {
            let f = i as f64 / steps as f64;
            let distance = closest + (far - closest) * f;
            self.steps.push((
                retreat_start + step_d.saturating_mul(i as u32),
                Action::MoveTagNear { uid, phone, distance },
            ));
        }
        self.cursor = retreat_start + approach;
        self
    }

    /// Total scripted duration (time of the last step).
    pub fn duration(&self) -> Duration {
        self.steps.iter().map(|(t, _)| *t).max().unwrap_or_default()
    }

    /// Number of scripted actions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the scenario has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    fn apply(world: &World, action: &Action) {
        match action {
            Action::TapTag { uid, phone } => world.tap_tag(*uid, *phone),
            Action::RemoveTag { uid } => world.remove_tag_from_field(*uid),
            Action::MoveTag { uid, to } => world.set_tag_position(*uid, *to),
            Action::MovePhone { phone, to } => world.set_phone_position(*phone, *to),
            Action::BringTogether { a, b } => world.bring_phones_together(*a, *b),
            Action::Separate { phone } => world.separate_phone(*phone),
            Action::MoveTagNear { uid, phone, distance } => {
                world.place_tag_near(*uid, *phone, *distance);
            }
        }
    }

    /// Runs the scenario to completion on the calling thread, pacing on
    /// the world clock.
    pub fn run(mut self, world: &World) {
        self.steps.sort_by_key(|(t, _)| *t);
        let mut elapsed = Duration::ZERO;
        for (t, action) in &self.steps {
            if *t > elapsed {
                world.clock().sleep(*t - elapsed);
                elapsed = *t;
            }
            Scenario::apply(world, action);
        }
    }

    /// Runs the scenario on a background driver thread.
    ///
    /// With a manually advanced [`crate::clock::VirtualClock`] the driver
    /// blocks in `sleep` until the test advances time.
    pub fn spawn(self, world: &World) -> std::thread::JoinHandle<()> {
        let world = world.clone();
        std::thread::Builder::new()
            .name("scenario-driver".into())
            .spawn(move || self.run(&world))
            .expect("spawn scenario driver")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, SimInstant, VirtualClock};
    use crate::controller::NfcHandle;
    use crate::link::LinkModel;
    use crate::tag::Type2Tag;
    use crate::world::{NfcEvent, World};
    use std::sync::Arc;

    fn setup() -> (World, PhoneId, TagUid, Arc<VirtualClock>) {
        let clock = VirtualClock::shared();
        let world = World::with_link(Arc::clone(&clock) as Arc<dyn Clock>, LinkModel::instant(), 0);
        let phone = world.add_phone("alice");
        let uid = world.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(1))));
        (world, phone, uid, clock)
    }

    #[test]
    fn steps_execute_in_time_order() {
        let (world, phone, uid, clock) = setup();
        let rx = world.subscribe(phone);
        Scenario::new()
            .at(Duration::from_secs(2), |s| s.remove_tag(uid))
            .at(Duration::from_secs(1), |s| s.tap_tag(uid, phone))
            .run(&world);
        // Tap (enter) must precede removal (leave) despite insertion order.
        assert!(matches!(rx.try_recv().unwrap(), NfcEvent::TagEntered { .. }));
        assert!(matches!(rx.try_recv().unwrap(), NfcEvent::TagLeft { .. }));
        // Auto-advancing virtual clock consumed exactly the scripted time.
        assert_eq!(clock.now(), SimInstant::EPOCH + Duration::from_secs(2));
    }

    #[test]
    fn after_chains_relative_offsets() {
        let s = Scenario::new()
            .at(Duration::from_secs(1), |s| s.tap_tag(TagUid::from_seed(1), PhoneId::from_u64(0)))
            .after(Duration::from_millis(500), |s| s.remove_tag(TagUid::from_seed(1)));
        assert_eq!(s.duration(), Duration::from_millis(1500));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn duty_cycle_generates_square_wave() {
        let uid = TagUid::from_seed(2);
        let phone = PhoneId::from_u64(0);
        let s = Scenario::new().presence_duty_cycle(uid, phone, Duration::from_secs(1), 0.25, 4);
        assert_eq!(s.len(), 8); // 4 taps + 4 removals
        assert_eq!(s.duration(), Duration::from_millis(3250));
        // Full duty emits no removals.
        let s = Scenario::new().presence_duty_cycle(uid, phone, Duration::from_secs(1), 1.0, 3);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn duty_cycle_drives_real_connectivity() {
        let (world, phone, uid, _clock) = setup();
        let rx = world.subscribe(phone);
        Scenario::new()
            .presence_duty_cycle(uid, phone, Duration::from_millis(100), 0.5, 3)
            .run(&world);
        let events: Vec<NfcEvent> = rx.try_iter().collect();
        let enters = events.iter().filter(|e| matches!(e, NfcEvent::TagEntered { .. })).count();
        let leaves = events.iter().filter(|e| matches!(e, NfcEvent::TagLeft { .. })).count();
        assert_eq!(enters, 3);
        assert_eq!(leaves, 3);
    }

    #[test]
    fn all_action_kinds_apply() {
        let (world, phone, uid, _clock) = setup();
        let other = world.add_phone("bob");
        Scenario::new()
            .at(Duration::ZERO, |s| {
                s.move_tag(uid, Point::new(3.0, 3.0))
                    .move_phone(phone, Point::new(3.0, 3.0))
                    .bring_together(phone, other)
            })
            .run(&world);
        assert!(world.tag_in_range(phone, uid));
        assert_eq!(world.peers_in_range(phone), vec![other]);
        Scenario::new().at(Duration::ZERO, |s| s.separate(other).remove_tag(uid)).run(&world);
        assert!(!world.tag_in_range(phone, uid));
        assert!(world.peers_in_range(phone).is_empty());
    }

    #[test]
    fn spawn_runs_on_a_driver_thread() {
        let (world, phone, uid, _clock) = setup();
        let handle =
            Scenario::new().at(Duration::from_millis(10), |s| s.tap_tag(uid, phone)).spawn(&world);
        handle.join().unwrap();
        assert!(world.tag_in_range(phone, uid));
    }

    #[test]
    fn sweep_moves_through_the_field_edge() {
        let (world, phone, uid, _clock) = setup();
        let rx = world.subscribe(phone);
        Scenario::new()
            .sweep_tag(
                uid,
                phone,
                0.005,
                Duration::from_millis(200),
                Duration::from_millis(100),
                10,
            )
            .run(&world);
        let events: Vec<NfcEvent> = rx.try_iter().collect();
        // The sweep enters the field exactly once and leaves exactly once.
        let enters = events.iter().filter(|e| matches!(e, NfcEvent::TagEntered { .. })).count();
        let leaves = events.iter().filter(|e| matches!(e, NfcEvent::TagLeft { .. })).count();
        assert_eq!(enters, 1);
        assert_eq!(leaves, 1);
        assert!(!world.tag_in_range(phone, uid), "sweep ends outside the field");
    }

    #[test]
    fn place_tag_near_controls_distance_reliability() {
        use crate::link::LinkModel;
        // A world with strong distance dependence: 0% at contact, 100% at edge.
        let clock = VirtualClock::shared();
        let world = World::with_link(
            clock,
            LinkModel {
                base_failure_prob: 0.0,
                edge_failure_prob: 1.0,
                setup_latency: Duration::ZERO,
                per_byte_latency: Duration::ZERO,
                ..LinkModel::realistic()
            },
            1,
        );
        let phone = world.add_phone("p");
        let uid = world.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(9))));
        let nfc = NfcHandle::new(world.clone(), phone);
        // At contact every exchange succeeds…
        world.place_tag_near(uid, phone, 0.0);
        for _ in 0..20 {
            assert!(nfc.transceive(uid, &[0x30, 3]).is_ok());
        }
        // …close to the very edge, exchanges mostly fail.
        world.place_tag_near(uid, phone, 0.039);
        let failures = (0..50).filter(|_| nfc.transceive(uid, &[0x30, 3]).is_err()).count();
        assert!(failures > 25, "edge of field must be unreliable, saw {failures}/50 failures");
    }

    #[test]
    #[should_panic(expected = "duty must be in")]
    fn bad_duty_panics() {
        Scenario::new().presence_duty_cycle(
            TagUid::from_seed(1),
            PhoneId::from_u64(0),
            Duration::from_secs(1),
            0.0,
            1,
        );
    }
}
