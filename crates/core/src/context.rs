//! The middleware's attachment point: everything MORENA needs from the
//! platform, decoupled from any particular activity.
//!
//! One of the paper's drawbacks of the raw API is its *"tight coupling
//! with the activity-based architecture"*: every NFC interaction must be
//! routed through the foreground activity. [`MorenaContext`] breaks that
//! coupling — it can be built *from* an activity (listeners then run on
//! that activity's main thread) or fully headless (the middleware pumps
//! its own main thread), letting RFID logic live outside the UI.
//!
//! The context also owns the middleware's shared machinery: the sharded
//! worker pool (sized by [`ExecutionPolicy`]), whose workers are the
//! context's only `morena-*` threads, and the event router, a task on
//! that pool that fans controller events out to references and
//! discoverers.

use std::sync::Arc;

use morena_android_sim::activity::ActivityContext;
use morena_android_sim::looper::{Handler, MainThread};
use morena_nfc_sim::clock::Clock;
use morena_nfc_sim::controller::NfcHandle;
use morena_nfc_sim::world::{PhoneId, World};
use morena_obs::expose::ExpositionServer;
use morena_obs::timeseries::{Sampler, SamplerConfig};
use morena_obs::{LoopTelemetry, WatchdogConfig};

use morena_obs::Mutex;

use crate::policy::Policy;
use crate::router::EventRouter;
use crate::sched::{ExecutionPolicy, Scheduler};

/// The platform services MORENA runs against: an NFC controller, a
/// main-thread handler for listener delivery, a clock for timeouts, and
/// the execution engine driving this context's far-reference loops.
///
/// Cheap to clone; all clones share the same main thread, worker pool,
/// and event router.
#[derive(Debug, Clone)]
pub struct MorenaContext {
    nfc: NfcHandle,
    handler: Handler,
    clock: Arc<dyn Clock>,
    exec: Arc<Scheduler>,
    router: Arc<EventRouter>,
    /// The context-level distribution policy: the default every
    /// reference, discoverer, and beamer created from this context
    /// inherits (shared across clones; see
    /// [`set_default_policy`](MorenaContext::set_default_policy)). One
    /// allocation, shared by everything created under it.
    policy: Arc<Mutex<Arc<Policy>>>,
    // Keeps a headless main thread alive for as long as any clone lives.
    _own_main: Option<Arc<MainThread>>,
}

impl MorenaContext {
    /// Attaches MORENA to an activity with the default execution policy:
    /// listeners will be delivered on the activity's main thread.
    pub fn from_activity(ctx: &ActivityContext) -> MorenaContext {
        MorenaContext::from_activity_with(ctx, ExecutionPolicy::default())
    }

    /// [`from_activity`](MorenaContext::from_activity) with an explicit
    /// [`ExecutionPolicy`] for this context's event loops.
    pub fn from_activity_with(ctx: &ActivityContext, policy: ExecutionPolicy) -> MorenaContext {
        MorenaContext::from_activity_with_policy(ctx, policy, Policy::default())
    }

    /// [`from_activity_with`](MorenaContext::from_activity_with) with an
    /// explicit context-level distribution [`Policy`] as well.
    pub fn from_activity_with_policy(
        ctx: &ActivityContext,
        exec_policy: ExecutionPolicy,
        policy: Policy,
    ) -> MorenaContext {
        MorenaContext::build(ctx.nfc().clone(), ctx.handler(), None, exec_policy, policy)
    }

    /// Runs MORENA without any activity (e.g. a background service) with
    /// the default execution policy: the context owns a private main
    /// thread for listener delivery.
    pub fn headless(world: &World, phone: PhoneId) -> MorenaContext {
        MorenaContext::headless_with(world, phone, ExecutionPolicy::default())
    }

    /// [`headless`](MorenaContext::headless) with an explicit
    /// [`ExecutionPolicy`] for this context's event loops.
    pub fn headless_with(world: &World, phone: PhoneId, policy: ExecutionPolicy) -> MorenaContext {
        MorenaContext::headless_with_policy(world, phone, policy, Policy::default())
    }

    /// [`headless_with`](MorenaContext::headless_with) with an explicit
    /// context-level distribution [`Policy`] as well.
    pub fn headless_with_policy(
        world: &World,
        phone: PhoneId,
        exec_policy: ExecutionPolicy,
        policy: Policy,
    ) -> MorenaContext {
        let main = Arc::new(MainThread::spawn());
        let nfc = NfcHandle::new(world.clone(), phone);
        MorenaContext::build(nfc, main.handler(), Some(main), exec_policy, policy)
    }

    /// Starts the worker pool and places the event router on it.
    fn build(
        nfc: NfcHandle,
        handler: Handler,
        own_main: Option<Arc<MainThread>>,
        exec_policy: ExecutionPolicy,
        policy: Policy,
    ) -> MorenaContext {
        let clock = Arc::clone(nfc.world().clock());
        let exec = Arc::new(Scheduler::new(exec_policy, Arc::clone(&clock), nfc.world().obs()));
        let router = EventRouter::spawn(&nfc, &exec);
        MorenaContext {
            nfc,
            handler,
            clock,
            exec,
            router,
            policy: Arc::new(Mutex::new(Arc::new(policy))),
            _own_main: own_main,
        }
    }

    /// The phone's NFC controller.
    pub fn nfc(&self) -> &NfcHandle {
        &self.nfc
    }

    /// The phone this context operates.
    pub fn phone(&self) -> PhoneId {
        self.nfc.phone()
    }

    /// The handler listeners are posted to.
    pub fn handler(&self) -> Handler {
        self.handler.clone()
    }

    /// The clock used for timeouts and lease arithmetic.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The execution policy this context's event loops run under.
    pub fn execution_policy(&self) -> ExecutionPolicy {
        self.exec.policy()
    }

    /// The context-level distribution [`Policy`]: what references,
    /// discoverers, and beamers created *without* an explicit policy
    /// inherit (a snapshot — later
    /// [`set_default_policy`](MorenaContext::set_default_policy) calls
    /// do not retune already-created components).
    pub fn default_policy(&self) -> Policy {
        Policy::clone(&self.policy.lock())
    }

    /// The context-level policy itself, for components that pin it
    /// without copying it.
    pub(crate) fn shared_policy(&self) -> Arc<Policy> {
        Arc::clone(&self.policy.lock())
    }

    /// Replaces the context-level distribution [`Policy`] at runtime.
    /// Affects components created afterwards, on every clone of this
    /// context; components pin their policy at creation.
    pub fn set_default_policy(&self, policy: Policy) {
        *self.policy.lock() = Arc::new(policy);
    }

    /// The telemetry handle of an event loop named `name`, of family
    /// `kind`, that this context's phone runs against `target`.
    pub(crate) fn loop_telemetry(
        &self,
        name: String,
        kind: &'static str,
        target: String,
    ) -> LoopTelemetry {
        let recorder = Arc::clone(self.nfc.world().obs());
        LoopTelemetry::new(recorder, name, kind, self.phone().as_u64(), target)
    }

    /// Start the continuous telemetry sampler over this context's
    /// world: a background thread capturing metric rates, queue
    /// depths, memory, and health into bounded ring buffers on
    /// `config.interval` cadence (see
    /// [`morena_obs::timeseries`]).
    ///
    /// Timestamps come from this context's clock, so series line up
    /// with every other obs artifact; the cadence itself is real time,
    /// so a wedged world cannot wedge its own monitor. **Shutdown
    /// ordering:** stop (or drop) the returned [`Sampler`] *before*
    /// tearing down the world — the sampler joins its thread on drop,
    /// after which no tick can observe half-dropped components.
    pub fn start_sampler(&self, config: SamplerConfig) -> Sampler {
        let recorder = Arc::clone(self.nfc.world().obs());
        let clock = Arc::clone(&self.clock);
        Sampler::spawn(recorder, move || clock.now().as_nanos(), config)
    }

    /// Serve this world's metrics and live health as an
    /// OpenMetrics/Prometheus scrape endpoint on `addr` (port 0 picks
    /// an ephemeral port; ask the returned server for
    /// [`local_addr`](ExpositionServer::local_addr)). Each scrape
    /// evaluates a fresh watchdog verdict under `watchdog` thresholds.
    /// The server joins its thread on shutdown or drop.
    pub fn serve_metrics(
        &self,
        addr: impl std::net::ToSocketAddrs,
        watchdog: WatchdogConfig,
    ) -> std::io::Result<ExpositionServer> {
        let recorder = Arc::clone(self.nfc.world().obs());
        let clock = Arc::clone(&self.clock);
        ExpositionServer::bind(addr, recorder, move || clock.now().as_nanos(), watchdog)
    }

    /// The worker pool far-reference loops attach to.
    pub(crate) fn execution(&self) -> &Scheduler {
        &self.exec
    }

    /// The context's shared event dispatcher.
    pub(crate) fn router(&self) -> &Arc<EventRouter> {
        &self.router
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morena_nfc_sim::clock::VirtualClock;
    use morena_nfc_sim::link::LinkModel;

    #[test]
    fn headless_context_delivers_on_private_main_thread() {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
        let phone = world.add_phone("svc");
        let ctx = MorenaContext::headless(&world, phone);
        let (tx, rx) = std::sync::mpsc::channel();
        ctx.handler().post(move || {
            tx.send(std::thread::current().name().map(str::to_owned)).unwrap();
        });
        let name = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(name.as_deref(), Some("main-thread"));
        assert_eq!(ctx.phone(), phone);
    }

    #[test]
    fn clones_share_the_main_thread() {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
        let phone = world.add_phone("svc");
        let ctx = MorenaContext::headless(&world, phone);
        let clone = ctx.clone();
        drop(ctx);
        // The clone keeps the main thread alive.
        let (tx, rx) = std::sync::mpsc::channel();
        clone.handler().post(move || tx.send(42).unwrap());
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap(), 42);
    }

    #[test]
    fn sampler_and_exposition_wire_to_the_worlds_recorder() {
        use std::io::{Read as _, Write as _};

        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
        let phone = world.add_phone("svc");
        let ctx = MorenaContext::headless(&world, phone);
        world.obs().metrics().counter("ctx.test.counter").add(3);

        let mut sampler = ctx.start_sampler(SamplerConfig {
            interval: std::time::Duration::from_millis(2),
            ..SamplerConfig::default()
        });
        for _ in 0..500 {
            if sampler.series().latest("inspect.health").is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        sampler.stop();
        assert_eq!(sampler.series().latest("inspect.health"), Some(0.0));
        assert!(world.obs().metrics().snapshot().counter("obs.sampler.ticks") > 0);

        let server = ctx.serve_metrics(("127.0.0.1", 0), WatchdogConfig::default()).unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "got: {response}");
        assert!(response.contains("morena_ctx_test_counter_total 3"));
        assert!(response.trim_end().ends_with("# EOF"));
    }

    #[test]
    fn context_reports_its_execution_policy() {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
        let phone = world.add_phone("svc");
        let ctx =
            MorenaContext::headless_with(&world, phone, ExecutionPolicy::Sharded { workers: 3 });
        assert_eq!(ctx.execution_policy(), ExecutionPolicy::Sharded { workers: 3 });
    }

    #[test]
    fn zero_workers_clamp_to_one_working_shard() {
        use crate::convert::StringConverter;
        use crate::tagref::TagReference;
        use morena_nfc_sim::tag::{TagTech, TagUid, Type2Tag};

        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
        let phone = world.add_phone("svc");
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
        world.tap_tag(uid, phone);
        let ctx =
            MorenaContext::headless_with(&world, phone, ExecutionPolicy::Sharded { workers: 0 });
        assert_eq!(ctx.execution_policy(), ExecutionPolicy::Sharded { workers: 1 });

        let tag =
            TagReference::new(&ctx, uid, TagTech::Type2, Arc::new(StringConverter::plain_text()));
        tag.write_sync("clamped".into(), std::time::Duration::from_secs(10)).unwrap();
        assert_eq!(tag.cached().as_deref(), Some("clamped"));

        let snapshot = world.obs().inspector().snapshot(world.clock().now().as_nanos());
        assert_eq!(snapshot.shards().count(), 1);
    }
}
