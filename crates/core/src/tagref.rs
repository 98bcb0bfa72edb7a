//! The tag reference abstraction (§3.2 of the paper): a **first-class far
//! reference** to an RFID tag.
//!
//! A [`TagReference`] encapsulates:
//!
//! * the identity of one physical tag (its UID);
//! * a private event loop — a green loop pinned to one shard of the
//!   context's worker pool, so exactly one worker thread ever polls it
//!   (the paper's "own thread of control") — processing queued
//!   asynchronous read/write operations strictly in order, one attempt
//!   in flight at a time;
//! * automatic retry of operations while the tag is out of range
//!   (decoupling in time), bounded by per-operation timeouts;
//! * a data converter, so application values — not byte buffers — flow
//!   through the API;
//! * a cache of the last value seen on the tag, for synchronous access
//!   (with the paper's caveat: another device may have changed the tag
//!   since; use an asynchronous read when it matters).
//!
//! Listeners fire on the application's main thread, so no user code needs
//! manual concurrency management.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

use morena_ndef::NdefMessage;
use morena_nfc_sim::clock::SimInstant;
use morena_nfc_sim::controller::{NfcHandle, Resume};
use morena_nfc_sim::error::NfcOpError;
use morena_nfc_sim::proto::{NdefOp, Outcome};
use morena_nfc_sim::tag::{TagTech, TagUid};
use morena_nfc_sim::world::NfcEvent;
use morena_obs::MemFootprint;
use morena_obs::Mutex;

use crate::context::MorenaContext;
use crate::convert::TagDataConverter;
use crate::eventloop::{
    Attempted, EventLoop, ObsScope, OpExecutor, OpFailure, OpRequest, OpResponse, OpStats,
    OpTicket, Progress,
};
use crate::future::{block_on, OpFuture, UnitFuture};
use crate::policy::Policy;
use crate::router::RouteGuard;

/// The physical executor behind a tag reference: NDEF operations against
/// one tag over the lossy link, hardened against the radio's nastier
/// failure modes (lost responses, torn writes, corruption). When the
/// request's own procedure fails, the same attempt may run one recovery
/// procedure (a re-read, a read-back, a detection) that decides the
/// outcome from what the tag answers.
struct TagExecutor {
    nfc: NfcHandle,
    uid: TagUid,
}

impl OpExecutor for TagExecutor {
    fn connected(&self) -> bool {
        self.nfc.tag_in_range(self.uid)
    }

    fn execute(&self, request: &OpRequest, progress: &mut Progress) -> Attempted {
        let Progress { session, failed } = progress;
        if !session.is_running() {
            session.start(match request {
                OpRequest::Read => NdefOp::Read,
                OpRequest::Write(bytes) => NdefOp::Write(Arc::clone(bytes)),
                OpRequest::MakeReadOnly => NdefOp::MakeReadOnly,
                OpRequest::Push(_) => {
                    return Resume::Ready(Err(NfcOpError::Protocol("push is not a tag operation")))
                }
            });
        }
        loop {
            let outcome = match self.nfc.resume_ndef(self.uid, session) {
                Resume::Ready(outcome) => outcome,
                Resume::WaitUntil(at) => return Resume::WaitUntil(at),
            };
            let Some(failure) = failed.take() else {
                // The request's own procedure ended.
                let recovery = match (request, &outcome) {
                    // A one-shot corrupted response garbles the TLV or
                    // APDU framing; re-probe once before giving up — a
                    // persistent torn state fails the same way again,
                    // and a transient link error on the re-probe keeps
                    // the op retriable.
                    (OpRequest::Read, Err(NfcOpError::Protocol(_))) => NdefOp::Read,
                    // Verify-after-write: when the final command took
                    // effect but its response was lost (or its ACK
                    // corrupted), the tag already holds exactly the
                    // target content. Reading it back and comparing
                    // keeps retries idempotent — the logical write
                    // happened once, so report success instead of
                    // re-writing (or failing) a completed operation.
                    (OpRequest::Write(_), Err(_)) => NdefOp::Read,
                    // The lock write is irreversible and not repeatable:
                    // once it lands, a retry is refused as ReadOnly. If
                    // the tag reports itself protected, the operation
                    // already succeeded.
                    (OpRequest::MakeReadOnly, Err(_)) => NdefOp::Detect,
                    _ => return Resume::Ready(outcome),
                };
                *failed = outcome.err();
                session.start(recovery);
                continue;
            };
            // The recovery procedure ended: it decides the attempt.
            return Resume::Ready(match (request, outcome) {
                (OpRequest::Read, outcome) => outcome,
                (OpRequest::Write(bytes), Ok(Outcome::Bytes(current))) if *current == **bytes => {
                    Ok(OpResponse::Done)
                }
                (OpRequest::MakeReadOnly, Ok(Outcome::Info(info))) if !info.writable => {
                    Ok(OpResponse::Done)
                }
                _ => Err(failure),
            });
        }
    }
}

/// A connectivity observer: called with the reference and the new
/// reachability every time the tag enters or leaves the field.
type ConnectivityObserver<C> = Box<dyn Fn(TagReference<C>, bool) + Send + Sync>;

struct RefInner<C: TagDataConverter> {
    uid: TagUid,
    tech: TagTech,
    ctx: MorenaContext,
    converter: Arc<C>,
    event_loop: EventLoop,
    /// The reference's pinned distribution policy (the loop holds its
    /// own copy; this one answers cache-TTL checks).
    policy: Policy,
    /// The cached value and when it was last confirmed on the tag —
    /// [`Policy::cache_ttl`] ages it from that instant.
    cache: Mutex<Option<(C::Value, SimInstant)>>,
    /// The raw tag bytes whose decoded value sits in `cache`. A read
    /// returning byte-identical content skips NDEF parsing and
    /// conversion entirely (the zero-copy cached-read fast path);
    /// cleared whenever `cache` is set by hand.
    last_raw: Mutex<Option<Arc<[u8]>>>,
    // Dropping the guard unregisters this reference from the context's
    // event router.
    route: Mutex<Option<RouteGuard>>,
    observers: Mutex<Vec<Arc<ConnectivityObserver<C>>>>,
}

impl<C: TagDataConverter> Drop for RefInner<C> {
    fn drop(&mut self) {
        // Non-blocking teardown (C-DTOR-BLOCK): the loop drains on its
        // next poll and the route guard unregisters with the struct;
        // `close()` is the synchronous path.
        self.event_loop.stop();
    }
}

/// A first-class remote reference to one RFID tag.
///
/// Cheap to clone; all clones share the queue, cache, and event loop.
/// Within one [`TagDiscoverer`](crate::discovery::TagDiscoverer) there is
/// exactly one reference per tag (the paper's uniqueness guarantee).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use morena_core::context::MorenaContext;
/// use morena_core::convert::StringConverter;
/// use morena_core::tagref::TagReference;
/// use morena_nfc_sim::clock::VirtualClock;
/// use morena_nfc_sim::link::LinkModel;
/// use morena_nfc_sim::tag::{TagTech, TagUid, Type2Tag};
/// use morena_nfc_sim::world::World;
///
/// let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
/// let phone = world.add_phone("alice");
/// let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
/// let ctx = MorenaContext::headless(&world, phone);
///
/// let reference = TagReference::new(
///     &ctx, uid, TagTech::Type2, Arc::new(StringConverter::plain_text()),
/// );
/// // Queue a write while the tag is nowhere near the phone: it will be
/// // flushed automatically once the tag is tapped.
/// reference.write("hello".to_string(), |_| {}, |_, _| {});
/// assert_eq!(reference.queue_len(), 1);
/// ```
pub struct TagReference<C: TagDataConverter> {
    inner: Arc<RefInner<C>>,
}

impl<C: TagDataConverter> Clone for TagReference<C> {
    fn clone(&self) -> TagReference<C> {
        TagReference { inner: Arc::clone(&self.inner) }
    }
}

impl<C: TagDataConverter> MemFootprint for TagReference<C> {
    fn mem_bytes(&self) -> u64 {
        // Cached values and observer closures are attributed shallowly
        // (slot sizes only) — best-effort, per the trait contract.
        let cache = if self.inner.cache.lock().is_some() {
            std::mem::size_of::<(C::Value, SimInstant)>() as u64
        } else {
            0
        };
        let observers = self.inner.observers.lock().capacity() as u64
            * std::mem::size_of::<Arc<ConnectivityObserver<C>>>() as u64;
        std::mem::size_of::<RefInner<C>>() as u64
            + cache
            + observers
            + self.inner.event_loop.mem_bytes()
    }
}

impl<C: TagDataConverter> std::fmt::Debug for TagReference<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TagReference")
            .field("uid", &self.inner.uid.to_string())
            .field("tech", &self.inner.tech)
            .field("queued", &self.queue_len())
            .field("connected", &self.is_connected())
            .finish()
    }
}

impl<C: TagDataConverter> TagReference<C> {
    /// Creates a reference inheriting the context's default [`Policy`]
    /// (see [`MorenaContext::set_default_policy`]).
    pub fn new(
        ctx: &MorenaContext,
        uid: TagUid,
        tech: TagTech,
        converter: Arc<C>,
    ) -> TagReference<C> {
        TagReference::with_policy(ctx, uid, tech, converter, ctx.default_policy())
    }

    /// Creates a reference pinned to an explicit distribution
    /// [`Policy`] (retry curve, deadline budgets, cache TTL, write
    /// coalescing), overriding the context's default.
    pub fn with_policy(
        ctx: &MorenaContext,
        uid: TagUid,
        tech: TagTech,
        converter: Arc<C>,
        policy: Policy,
    ) -> TagReference<C> {
        let event_loop = EventLoop::spawn(
            &format!("tag-{uid}"),
            ctx.execution(),
            Arc::clone(ctx.clock()),
            ctx.handler(),
            policy.clone(),
            TagExecutor { nfc: ctx.nfc().clone(), uid },
            // Target keyed by uid rendering so op events join the
            // simulator's physical tag events in `morena_obs::correlate`.
            ObsScope::new(ctx, format!("tag-{uid}"), "tag", uid.to_string()),
        );
        let reference = TagReference {
            inner: Arc::new(RefInner {
                uid,
                tech,
                ctx: ctx.clone(),
                converter,
                event_loop: event_loop.clone(),
                policy,
                cache: Mutex::new(None),
                last_raw: Mutex::new(None),
                route: Mutex::new(None),
                observers: Mutex::new(Vec::new()),
            }),
        };
        // Route connectivity events for this tag through the context's
        // shared dispatcher: poke the event loop, fan out to observers.
        let weak = Arc::downgrade(&reference.inner);
        let guard = ctx.router().register(move |event| {
            let connected = match event {
                NfcEvent::TagEntered { uid: u, .. } if *u == uid => true,
                NfcEvent::TagLeft { uid: u } if *u == uid => false,
                _ => return,
            };
            event_loop.wake();
            let Some(inner) = weak.upgrade() else { return };
            let observers: Vec<_> = inner.observers.lock().clone();
            for observer in observers {
                let reference = TagReference { inner: Arc::clone(&inner) };
                inner.ctx.handler().post(move || observer(reference, connected));
            }
        });
        *reference.inner.route.lock() = Some(guard);
        reference
    }

    /// The referenced tag's UID.
    pub fn uid(&self) -> TagUid {
        self.inner.uid
    }

    /// The referenced tag's platform.
    pub fn tech(&self) -> TagTech {
        self.inner.tech
    }

    /// The reference's data converter.
    pub fn converter(&self) -> &Arc<C> {
        &self.inner.converter
    }

    /// The context this reference delivers listeners through.
    pub fn context(&self) -> &MorenaContext {
        &self.inner.ctx
    }

    /// Whether the tag is in communication range *right now* (tracking of
    /// connectivity; may change at any instant).
    pub fn is_connected(&self) -> bool {
        self.inner.ctx.nfc().tag_in_range(self.inner.uid)
    }

    /// Number of operations queued (including the one being attempted).
    pub fn queue_len(&self) -> usize {
        self.inner.event_loop.queue_len()
    }

    /// Lifetime operation statistics of this reference's event loop.
    pub fn stats(&self) -> Arc<OpStats> {
        self.inner.event_loop.stats()
    }

    /// The last value successfully seen on the tag (read or written), if
    /// any. Blank reads, transient failures, and unconvertible data all
    /// leave it untouched — only a successful read or write of an actual
    /// value replaces it.
    ///
    /// Synchronous and instant — but possibly stale: *"if a tag is not
    /// seen for some time, its contents might have changed and an
    /// asynchronous read is a better option"* (§3.2). With
    /// [`Policy::cache_ttl`] set, a value older than the TTL is treated
    /// as absent (forcing callers onto the asynchronous read path); the
    /// default policy keeps the paper's never-expires semantics.
    pub fn cached(&self) -> Option<C::Value> {
        let guard = self.inner.cache.lock();
        let (value, at) = guard.as_ref()?;
        if let Some(ttl) = self.inner.policy.cache_ttl {
            if self.inner.ctx.clock().now().saturating_since(*at) > ttl {
                return None;
            }
        }
        Some(value.clone())
    }

    /// Replaces the cached value locally (no tag I/O). Used by discovery
    /// pre-reads and by the things layer when the application mutates a
    /// thing before saving it.
    pub fn set_cached(&self, value: Option<C::Value>) {
        // A hand-set value no longer corresponds to any raw bytes seen
        // on the tag, so the identical-read fast path must re-decode.
        let now = self.inner.ctx.clock().now();
        *self.inner.last_raw.lock() = None;
        *self.inner.cache.lock() = value.map(|v| (v, now));
    }

    /// Stores a value together with the raw tag bytes it was decoded
    /// from (or encoded to), arming the identical-read fast path.
    fn store_cache(&self, value: C::Value, raw: Arc<[u8]>) {
        let now = self.inner.ctx.clock().now();
        *self.inner.cache.lock() = Some((value, now));
        *self.inner.last_raw.lock() = Some(raw);
    }

    /// Folds a successful read's raw bytes into the reference: blank
    /// reads keep the last-seen value (§3.2 semantics hardened for torn
    /// writes), byte-identical content short-circuits without parsing,
    /// anything else is decoded and cached.
    fn absorb_read(&self, bytes: &[u8]) -> Result<(), crate::convert::ConvertError> {
        if bytes.is_empty() {
            // Formatted but blank tag: a successful read of an empty
            // value. The cache deliberately keeps the last value
            // successfully *seen* — a torn Type 4 write reads back
            // blank until repaired, and wiping here would let a
            // transient fault destroy the last-known-good value.
            return Ok(());
        }
        if self.inner.last_raw.lock().as_deref() == Some(bytes) {
            // Identical to the bytes behind the current cache entry:
            // the decoded value is already there. This is the
            // steady-state read path — no parse, no conversion, no
            // allocation. The read did re-confirm the content on the
            // tag, so refresh the staleness stamp when a TTL cares.
            if self.inner.policy.cache_ttl.is_some() {
                let now = self.inner.ctx.clock().now();
                if let Some((_, at)) = self.inner.cache.lock().as_mut() {
                    *at = now;
                }
            }
            return Ok(());
        }
        let message = NdefMessage::parse(bytes).map_err(crate::convert::ConvertError::from)?;
        let value = self.inner.converter.from_message(&message)?;
        self.store_cache(value, bytes.into());
        Ok(())
    }

    /// Queues an asynchronous read with the default timeout.
    ///
    /// On success the cache is refreshed and `on_success` runs on the
    /// main thread with this reference; all failures (timeout, permanent
    /// fault, unconvertible data) go to `on_failure`.
    pub fn read<F, G>(&self, on_success: F, on_failure: G) -> OpTicket
    where
        F: FnOnce(TagReference<C>) + Send + 'static,
        G: FnOnce(TagReference<C>, OpFailure) + Send + 'static,
    {
        self.read_impl(None, on_success, on_failure)
    }

    /// [`read`](TagReference::read) with an explicit timeout.
    pub fn read_with_timeout<F, G>(
        &self,
        timeout: Duration,
        on_success: F,
        on_failure: G,
    ) -> OpTicket
    where
        F: FnOnce(TagReference<C>) + Send + 'static,
        G: FnOnce(TagReference<C>, OpFailure) + Send + 'static,
    {
        self.read_impl(Some(timeout), on_success, on_failure)
    }

    /// [`read`](TagReference::read) without a failure listener (the
    /// paper's listener-omitting overload).
    pub fn read_ok<F>(&self, on_success: F) -> OpTicket
    where
        F: FnOnce(TagReference<C>) + Send + 'static,
    {
        self.read_impl(None, on_success, |_, _| {})
    }

    fn read_impl<F, G>(&self, timeout: Option<Duration>, on_success: F, on_failure: G) -> OpTicket
    where
        F: FnOnce(TagReference<C>) + Send + 'static,
        G: FnOnce(TagReference<C>, OpFailure) + Send + 'static,
    {
        let this = self.clone();
        let fail_slot = Arc::new(Mutex::new(Some(on_failure)));
        let fail_for_success_path = Arc::clone(&fail_slot);
        let this_err = self.clone();
        self.inner.event_loop.submit(
            OpRequest::Read,
            timeout,
            Box::new(move |response| {
                let OpResponse::Bytes(bytes) = response else {
                    return; // Read always yields bytes.
                };
                match this.absorb_read(&bytes) {
                    Ok(()) => on_success(this),
                    Err(e) => {
                        if let Some(fail) = fail_for_success_path.lock().take() {
                            fail(this, OpFailure::InvalidData(e));
                        }
                    }
                }
            }),
            Box::new(move |failure| {
                if let Some(fail) = fail_slot.lock().take() {
                    fail(this_err, failure);
                }
            }),
        )
    }

    /// Queues an asynchronous write of `value` with the default timeout.
    ///
    /// The value is converted immediately; on success the cache holds
    /// `value` and `on_success` runs on the main thread.
    pub fn write<F, G>(&self, value: C::Value, on_success: F, on_failure: G) -> OpTicket
    where
        F: FnOnce(TagReference<C>) + Send + 'static,
        G: FnOnce(TagReference<C>, OpFailure) + Send + 'static,
    {
        self.write_impl(value, None, on_success, on_failure)
    }

    /// [`write`](TagReference::write) with an explicit timeout.
    pub fn write_with_timeout<F, G>(
        &self,
        value: C::Value,
        timeout: Duration,
        on_success: F,
        on_failure: G,
    ) -> OpTicket
    where
        F: FnOnce(TagReference<C>) + Send + 'static,
        G: FnOnce(TagReference<C>, OpFailure) + Send + 'static,
    {
        self.write_impl(value, Some(timeout), on_success, on_failure)
    }

    /// [`write`](TagReference::write) without a failure listener.
    pub fn write_ok<F>(&self, value: C::Value, on_success: F) -> OpTicket
    where
        F: FnOnce(TagReference<C>) + Send + 'static,
    {
        self.write_impl(value, None, on_success, |_, _| {})
    }

    fn write_impl<F, G>(
        &self,
        value: C::Value,
        timeout: Option<Duration>,
        on_success: F,
        on_failure: G,
    ) -> OpTicket
    where
        F: FnOnce(TagReference<C>) + Send + 'static,
        G: FnOnce(TagReference<C>, OpFailure) + Send + 'static,
    {
        let bytes: Arc<[u8]> = match self.inner.converter.to_message(&value) {
            Ok(message) => message.to_bytes().into(),
            Err(e) => {
                // Conversion failures surface asynchronously like any
                // other failure, keeping call sites uniform.
                let this = self.clone();
                self.inner.ctx.handler().post(move || {
                    on_failure(this, OpFailure::InvalidData(e));
                });
                return self.inner.event_loop.dead_ticket();
            }
        };
        let this = self.clone();
        let this_err = self.clone();
        let raw = Arc::clone(&bytes);
        self.inner.event_loop.submit(
            OpRequest::Write(bytes),
            timeout,
            Box::new(move |_| {
                this.store_cache(value, raw);
                on_success(this);
            }),
            Box::new(move |failure| on_failure(this_err, failure)),
        )
    }

    /// Queues an asynchronous, **irreversible** write-protection of the
    /// tag (the far-reference shape of `Ndef.makeReadOnly()`), with the
    /// default timeout. Like every queued operation it survives
    /// disconnection and retries transient faults.
    pub fn make_read_only<F, G>(&self, on_success: F, on_failure: G) -> OpTicket
    where
        F: FnOnce(TagReference<C>) + Send + 'static,
        G: FnOnce(TagReference<C>, OpFailure) + Send + 'static,
    {
        let this = self.clone();
        let this_err = self.clone();
        self.inner.event_loop.submit(
            OpRequest::MakeReadOnly,
            None,
            Box::new(move |_| on_success(this)),
            Box::new(move |failure| on_failure(this_err, failure)),
        )
    }

    /// Queues an asynchronous read and returns a future resolving to
    /// the refreshed cache (blank tags keep the last value seen).
    ///
    /// The future resolves on the loop's polling thread — no main-thread
    /// hop, no listener boxes. Dropping it before completion withdraws
    /// the operation (it fails as [`OpFailure::Cancelled`] internally;
    /// nobody observes the result). If the reference is closed — before
    /// or while the operation is queued — the future resolves with
    /// [`OpFailure::Cancelled`] rather than pending forever.
    pub fn read_async(&self) -> ReadFuture<C> {
        self.read_async_with_timeout_opt(None)
    }

    /// [`read_async`](TagReference::read_async) with an explicit timeout.
    pub fn read_async_with_timeout(&self, timeout: Duration) -> ReadFuture<C> {
        self.read_async_with_timeout_opt(Some(timeout))
    }

    fn read_async_with_timeout_opt(&self, timeout: Option<Duration>) -> ReadFuture<C> {
        ReadFuture {
            inner: self.inner.event_loop.submit_future(OpRequest::Read, timeout),
            reference: self.clone(),
        }
    }

    /// Queues an asynchronous write of `value` and returns a future
    /// resolving once it lands on the tag (the cache then holds
    /// `value`). Same drop/cancel and shutdown semantics as
    /// [`read_async`](TagReference::read_async); conversion failures
    /// resolve the future with [`OpFailure::InvalidData`].
    pub fn write_async(&self, value: C::Value) -> WriteFuture<C> {
        self.write_async_with_timeout_opt(value, None)
    }

    /// [`write_async`](TagReference::write_async) with an explicit
    /// timeout.
    pub fn write_async_with_timeout(&self, value: C::Value, timeout: Duration) -> WriteFuture<C> {
        self.write_async_with_timeout_opt(value, Some(timeout))
    }

    fn write_async_with_timeout_opt(
        &self,
        value: C::Value,
        timeout: Option<Duration>,
    ) -> WriteFuture<C> {
        let bytes: Arc<[u8]> = match self.inner.converter.to_message(&value) {
            Ok(message) => message.to_bytes().into(),
            Err(e) => {
                return WriteFuture {
                    state: WriteState::Immediate(Some(OpFailure::InvalidData(e))),
                }
            }
        };
        let raw = Arc::clone(&bytes);
        WriteFuture {
            state: WriteState::Queued {
                inner: self.inner.event_loop.submit_future(OpRequest::Write(bytes), timeout),
                reference: self.clone(),
                value: Some(value),
                raw,
            },
        }
    }

    /// Queues an asynchronous, irreversible write-protection of the tag
    /// and returns a future resolving when it lands. Same drop/cancel
    /// and shutdown semantics as [`read_async`](TagReference::read_async).
    pub fn make_read_only_async(&self) -> UnitFuture {
        UnitFuture::queued(self.inner.event_loop.submit_future(OpRequest::MakeReadOnly, None))
    }

    /// Registers a connectivity observer (§1.2: far references let the
    /// programmer *"register observers on it to be notified of
    /// connectivity changes"*). The observer runs on the main thread
    /// with this reference and the new reachability every time the tag
    /// enters (`true`) or leaves (`false`) the field.
    pub fn on_connectivity(
        &self,
        observer: impl Fn(TagReference<C>, bool) + Send + Sync + 'static,
    ) {
        self.inner.observers.lock().push(Arc::new(Box::new(observer)));
    }

    /// Blocking convenience: queues a read and waits for its outcome.
    /// Returns the cache as refreshed by the read (for a blank tag the
    /// cache — and thus the return value — keeps the last value seen).
    ///
    /// This is [`block_on`] over
    /// [`read_async_with_timeout`](TagReference::read_async_with_timeout):
    /// the future resolves on the loop's polling thread, so the adapter
    /// is safe from any thread — including the main thread — and
    /// terminates with [`OpFailure::Cancelled`] if the context stops
    /// mid-operation. With a
    /// [`VirtualClock`](morena_nfc_sim::clock::VirtualClock), some other
    /// thread must advance time for the timeout to ever fire.
    ///
    /// # Errors
    ///
    /// The [`OpFailure`] the asynchronous read would have delivered.
    pub fn read_sync(&self, timeout: Duration) -> Result<Option<C::Value>, OpFailure> {
        block_on(self.read_async_with_timeout(timeout))
    }

    /// Blocking convenience: queues a write and waits for its outcome.
    /// Same caveats as [`read_sync`](TagReference::read_sync).
    ///
    /// # Errors
    ///
    /// The [`OpFailure`] the asynchronous write would have delivered.
    pub fn write_sync(&self, value: C::Value, timeout: Duration) -> Result<(), OpFailure> {
        block_on(self.write_async_with_timeout(value, timeout))
    }

    /// Stops the private event loop: queued operations fail with
    /// [`OpFailure::Cancelled`] and no further operations are accepted.
    ///
    /// Reclaiming references is the application's responsibility (§3.2);
    /// this is the lever.
    pub fn close(&self) {
        self.inner.route.lock().take();
        self.inner.event_loop.stop();
    }

    /// Whether [`close`](TagReference::close) has been called (or the
    /// private event loop otherwise stopped). A closed reference never
    /// completes another operation; discovery uses this to evict dead
    /// references from its identity map.
    pub fn is_closed(&self) -> bool {
        self.inner.event_loop.is_stopped()
    }
}

/// Future returned by [`TagReference::read_async`]: resolves to the
/// refreshed cache once the read lands (blank tags keep the last value
/// seen). Dropping it before completion withdraws the operation.
pub struct ReadFuture<C: TagDataConverter> {
    inner: OpFuture,
    reference: TagReference<C>,
}

// The pinned fields are only the plain-`Unpin` OpFuture and a handle;
// C::Value never lives inside the future, so no bound on it is needed.
impl<C: TagDataConverter> Unpin for ReadFuture<C> {}

impl<C: TagDataConverter> ReadFuture<C> {
    /// A cancellation handle for the queued read; works even after the
    /// future itself has been consumed by an executor.
    pub fn ticket(&self) -> OpTicket {
        self.inner.ticket()
    }
}

impl<C: TagDataConverter> Future for ReadFuture<C> {
    type Output = Result<Option<C::Value>, OpFailure>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match Pin::new(&mut this.inner).poll(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Err(failure)) => Poll::Ready(Err(failure)),
            Poll::Ready(Ok(response)) => {
                let bytes = match response {
                    OpResponse::Bytes(bytes) => bytes,
                    _ => Vec::new(),
                };
                match this.reference.absorb_read(&bytes) {
                    Ok(()) => Poll::Ready(Ok(this.reference.cached())),
                    Err(e) => Poll::Ready(Err(OpFailure::InvalidData(e))),
                }
            }
        }
    }
}

impl<C: TagDataConverter> std::fmt::Debug for ReadFuture<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadFuture").field("reference", &self.reference).finish()
    }
}

enum WriteState<C: TagDataConverter> {
    Queued {
        inner: OpFuture,
        reference: TagReference<C>,
        // Held until success so the cache can absorb exactly what was
        // written without re-encoding.
        value: Option<C::Value>,
        raw: Arc<[u8]>,
    },
    // Conversion failed before anything was queued; resolves immediately.
    Immediate(Option<OpFailure>),
}

/// Future returned by [`TagReference::write_async`]: resolves once the
/// value lands on the tag (the cache then holds the written value).
/// Dropping it before completion withdraws the operation.
pub struct WriteFuture<C: TagDataConverter> {
    state: WriteState<C>,
}

impl<C: TagDataConverter> Unpin for WriteFuture<C> {}

impl<C: TagDataConverter> WriteFuture<C> {
    /// A cancellation handle for the queued write. For a write that
    /// failed conversion (and so was never queued) the ticket is inert.
    pub fn ticket(&self) -> OpTicket {
        match &self.state {
            WriteState::Queued { inner, .. } => inner.ticket(),
            WriteState::Immediate(_) => OpTicket::dead(),
        }
    }
}

impl<C: TagDataConverter> Future for WriteFuture<C> {
    type Output = Result<(), OpFailure>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.get_mut().state {
            WriteState::Immediate(failure) => {
                Poll::Ready(Err(failure.take().expect("WriteFuture polled after completion")))
            }
            WriteState::Queued { inner, reference, value, raw } => match Pin::new(inner).poll(cx) {
                Poll::Pending => Poll::Pending,
                Poll::Ready(Err(failure)) => Poll::Ready(Err(failure)),
                Poll::Ready(Ok(_)) => {
                    let value = value.take().expect("WriteFuture polled after completion");
                    reference.store_cache(value, Arc::clone(raw));
                    Poll::Ready(Ok(()))
                }
            },
        }
    }
}

impl<C: TagDataConverter> std::fmt::Debug for WriteFuture<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            WriteState::Queued { reference, .. } => {
                f.debug_struct("WriteFuture").field("reference", &reference).finish()
            }
            WriteState::Immediate(failure) => {
                f.debug_struct("WriteFuture").field("immediate", failure).finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::StringConverter;
    use morena_nfc_sim::clock::VirtualClock;
    use morena_nfc_sim::link::LinkModel;
    use morena_nfc_sim::tag::Type2Tag;
    use morena_nfc_sim::world::World;
    use std::sync::mpsc::channel;

    fn setup() -> (World, MorenaContext, TagUid) {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 5);
        let phone = world.add_phone("alice");
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
        let ctx = MorenaContext::headless(&world, phone);
        (world, ctx, uid)
    }

    fn string_ref(ctx: &MorenaContext, uid: TagUid) -> TagReference<StringConverter> {
        TagReference::new(ctx, uid, TagTech::Type2, Arc::new(StringConverter::plain_text()))
    }

    #[test]
    fn write_then_read_round_trips_and_updates_cache() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        world.tap_tag(uid, ctx.phone());

        let (tx, rx) = channel();
        let tx2 = tx.clone();
        reference.write(
            "stored".to_string(),
            move |r| tx.send(r.cached()).unwrap(),
            |_, f| panic!("write failed: {f}"),
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), Some("stored".to_string()));

        // Clear the cache, read it back over the air.
        reference.set_cached(None);
        reference.read(move |r| tx2.send(r.cached()).unwrap(), |_, f| panic!("read failed: {f}"));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), Some("stored".to_string()));
        assert_eq!(reference.uid(), uid);
        assert_eq!(reference.tech(), TagTech::Type2);
    }

    #[test]
    fn reading_a_blank_tag_yields_empty_cache() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        world.tap_tag(uid, ctx.phone());
        let (tx, rx) = channel();
        reference.read(move |r| tx.send(r.cached()).unwrap(), |_, f| panic!("{f}"));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), None);
    }

    #[test]
    fn blank_read_preserves_the_last_seen_cache() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        world.tap_tag(uid, ctx.phone());
        reference.write_sync("v1".into(), Duration::from_secs(10)).unwrap();

        // Blank the tag behind the reference's back (an empty NDEF
        // message, as a torn Type 4 write would leave behind).
        ctx.nfc().ndef_write(uid, &[]).unwrap();

        // The read succeeds but sees no value: the cache must keep the
        // last value successfully seen, not degrade to None.
        assert_eq!(reference.read_sync(Duration::from_secs(10)).unwrap().as_deref(), Some("v1"));
        assert_eq!(reference.cached().as_deref(), Some("v1"));
    }

    #[test]
    fn invalid_data_preserves_the_last_seen_cache() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        world.tap_tag(uid, ctx.phone());
        reference.write_sync("v1".into(), Duration::from_secs(10)).unwrap();

        // Overwrite with a payload the converter cannot decode.
        let other = morena_ndef::NdefMessage::single(
            morena_ndef::NdefRecord::mime("application/other", b"x".to_vec()).unwrap(),
        );
        ctx.nfc().ndef_write(uid, &other.to_bytes()).unwrap();

        let (tx, rx) = channel();
        reference.read(|_| panic!("must not convert"), move |_, f| tx.send(f).unwrap());
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            OpFailure::InvalidData(_)
        ));
        // The failure is surfaced, but the last-known-good value stays.
        assert_eq!(reference.cached().as_deref(), Some("v1"));
    }

    #[test]
    fn cache_ttl_ages_the_synchronous_value_out() {
        let clock = Arc::new(VirtualClock::with_auto_advance(false));
        let world = World::with_link(clock.clone(), LinkModel::instant(), 5);
        let phone = world.add_phone("alice");
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
        let ctx = MorenaContext::headless(&world, phone);
        let reference = TagReference::with_policy(
            &ctx,
            uid,
            TagTech::Type2,
            Arc::new(StringConverter::plain_text()),
            Policy::new().with_cache_ttl(Some(Duration::from_secs(1))),
        );
        world.tap_tag(uid, ctx.phone());
        reference.write_sync("fresh".into(), Duration::from_secs(10)).unwrap();
        assert_eq!(reference.cached().as_deref(), Some("fresh"));

        // Past the TTL the synchronous accessor reports nothing…
        clock.advance(Duration::from_secs(2));
        assert_eq!(reference.cached(), None, "stale value must not be served");

        // …and an over-the-air read re-confirms the content, restarting
        // the TTL window even though the bytes were identical.
        assert_eq!(reference.read_sync(Duration::from_secs(10)).unwrap().as_deref(), Some("fresh"));
        assert_eq!(reference.cached().as_deref(), Some("fresh"));
    }

    #[test]
    fn default_policy_cache_never_expires() {
        let clock = Arc::new(VirtualClock::with_auto_advance(false));
        let world = World::with_link(clock.clone(), LinkModel::instant(), 5);
        let phone = world.add_phone("alice");
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
        let ctx = MorenaContext::headless(&world, phone);
        let reference = string_ref(&ctx, uid);
        world.tap_tag(uid, ctx.phone());
        reference.write_sync("keep".into(), Duration::from_secs(10)).unwrap();
        clock.advance(Duration::from_secs(3600));
        assert_eq!(reference.cached().as_deref(), Some("keep"));
    }

    #[test]
    fn close_marks_the_reference_closed() {
        let (_world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        assert!(!reference.is_closed());
        reference.close();
        assert!(reference.is_closed());
    }

    #[test]
    fn ops_queued_while_disconnected_flush_on_tap() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        assert!(!reference.is_connected());

        let (tx, rx) = channel();
        for i in 0..4 {
            let tx = tx.clone();
            reference.write(format!("msg-{i}"), move |_| tx.send(i).unwrap(), |_, f| panic!("{f}"));
        }
        assert_eq!(reference.queue_len(), 4);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(reference.queue_len(), 4, "nothing may flush while out of range");

        world.tap_tag(uid, ctx.phone());
        // The whole batch flushes in FIFO order on one tap.
        let order: Vec<i32> =
            (0..4).map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(reference.cached(), Some("msg-3".to_string()));
    }

    #[test]
    fn in_order_delivery_is_guaranteed_across_interruptions() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        let (tx, rx) = channel();
        // First write queued while connected…
        world.tap_tag(uid, ctx.phone());
        for i in 0..2 {
            let tx = tx.clone();
            reference.write(
                format!("a-{i}"),
                move |_| tx.send(format!("a-{i}")).unwrap(),
                |_, f| panic!("{f}"),
            );
        }
        // …then the tag disappears and more writes pile up.
        world.remove_tag_from_field(uid);
        for i in 0..2 {
            let tx = tx.clone();
            reference.write(
                format!("b-{i}"),
                move |_| tx.send(format!("b-{i}")).unwrap(),
                |_, f| panic!("{f}"),
            );
        }
        world.tap_tag(uid, ctx.phone());
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        }
        assert_eq!(seen, vec!["a-0", "a-1", "b-0", "b-1"]);
    }

    #[test]
    fn permanent_failures_reach_the_failure_listener() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        world.with_tag(uid, |t| {
            t.as_any_mut().downcast_mut::<Type2Tag>().expect("type 2").set_read_only(true);
        });
        world.tap_tag(uid, ctx.phone());

        let (tx, rx) = channel();
        reference.write(
            "x".to_string(),
            |_| panic!("must not succeed"),
            move |_, f| tx.send(f).unwrap(),
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            OpFailure::Failed(NfcOpError::ReadOnly)
        );
    }

    #[test]
    fn unconvertible_tag_data_is_invalid_data() {
        let (world, ctx, uid) = setup();
        world.tap_tag(uid, ctx.phone());
        // Store a different MIME type than the reference expects.
        let nfc = ctx.nfc();
        let other = morena_ndef::NdefMessage::single(
            morena_ndef::NdefRecord::mime("application/other", b"x".to_vec()).unwrap(),
        );
        nfc.ndef_write(uid, &other.to_bytes()).unwrap();

        let reference = string_ref(&ctx, uid);
        let (tx, rx) = channel();
        reference.read(|_| panic!("must not convert"), move |_, f| tx.send(f).unwrap());
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            OpFailure::InvalidData(_)
        ));
    }

    #[test]
    fn close_cancels_pending_ops() {
        let (_world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        let (tx, rx) = channel();
        reference.write("never".into(), |_| panic!("no"), move |_, f| tx.send(f).unwrap());
        reference.close();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), OpFailure::Cancelled);
    }

    #[test]
    fn make_read_only_queues_like_any_far_reference_operation() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        // Queue: write, then protect — both against an absent tag.
        reference.write(
            "final words".into(),
            move |_| tx.send("write").unwrap(),
            |_, f| panic!("{f}"),
        );
        reference.make_read_only(move |_| tx2.send("locked").unwrap(), |_, f| panic!("{f}"));
        world.tap_tag(uid, ctx.phone());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), "write");
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), "locked");
        // A later write fails permanently.
        let (err_tx, err_rx) = channel();
        reference.write(
            "too late".into(),
            |_| panic!("locked"),
            move |_, f| err_tx.send(f).unwrap(),
        );
        assert!(matches!(
            err_rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            OpFailure::Failed(NfcOpError::ReadOnly)
        ));
        // The content written before the lock is still there.
        assert_eq!(
            reference.read_sync(Duration::from_secs(10)).unwrap().as_deref(),
            Some("final words")
        );
        reference.close();
    }

    #[test]
    fn queued_ops_can_be_cancelled_before_the_tag_appears() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        // Two writes queued against the absent tag; cancel the first.
        let ticket = reference.write(
            "withdrawn".to_string(),
            |_| panic!("cancelled op must not succeed"),
            move |_, f| tx.send(("first", f)).unwrap(),
        );
        reference.write(
            "kept".to_string(),
            move |r| {
                tx2.send(("second", OpFailure::Cancelled))
                    .map(|_| {
                        let _ = r;
                    })
                    .unwrap()
            },
            |_, f| panic!("second op failed: {f}"),
        );
        assert!(ticket.cancel());
        assert!(!ticket.cancel(), "cancel is idempotent");
        assert!(ticket.is_cancelled());
        let (which, failure) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(which, "first");
        assert_eq!(failure, OpFailure::Cancelled);
        // The remaining op proceeds normally once the tag appears.
        world.tap_tag(uid, ctx.phone());
        let (which, _) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(which, "second");
        assert_eq!(reference.cached().as_deref(), Some("kept"));
        assert_eq!(reference.stats().snapshot().cancelled, 1);
    }

    #[test]
    fn cancelling_a_completed_op_is_a_noop() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        world.tap_tag(uid, ctx.phone());
        let (tx, rx) = channel();
        let ticket = reference.write(
            "done".to_string(),
            move |_| tx.send(()).unwrap(),
            |_, f| panic!("{f}"),
        );
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        // The op already completed; cancelling must not produce a failure.
        ticket.cancel();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(reference.stats().snapshot().cancelled, 0);
        assert_eq!(reference.cached().as_deref(), Some("done"));
    }

    #[test]
    fn connectivity_observers_fire_on_enter_and_leave() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        let (tx, rx) = channel();
        reference.on_connectivity(move |r, connected| {
            tx.send((r.uid(), connected)).unwrap();
        });
        world.tap_tag(uid, ctx.phone());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), (uid, true));
        world.remove_tag_from_field(uid);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), (uid, false));
        // Multiple observers all fire.
        let (tx2, rx2) = channel();
        reference.on_connectivity(move |_, connected| tx2.send(connected).unwrap());
        world.tap_tag(uid, ctx.phone());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), (uid, true));
        assert!(rx2.recv_timeout(Duration::from_secs(10)).unwrap());
    }

    #[test]
    fn sync_adapters_round_trip() {
        let (world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        world.tap_tag(uid, ctx.phone());
        reference.write_sync("synchronous".into(), Duration::from_secs(10)).unwrap();
        assert_eq!(
            reference.read_sync(Duration::from_secs(10)).unwrap().as_deref(),
            Some("synchronous")
        );
    }

    #[test]
    fn sync_adapters_surface_failures() {
        let (_world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        reference.close();
        assert_eq!(
            reference.write_sync("x".into(), Duration::from_secs(1)).unwrap_err(),
            OpFailure::Cancelled
        );
    }

    #[test]
    fn clones_share_queue_and_cache() {
        let (_world, ctx, uid) = setup();
        let reference = string_ref(&ctx, uid);
        let clone = reference.clone();
        clone.set_cached(Some("shared".into()));
        assert_eq!(reference.cached(), Some("shared".into()));
        reference.write("queued".into(), |_| {}, |_, _| {});
        assert_eq!(clone.queue_len(), 1);
        assert!(format!("{reference:?}").contains("TagReference"));
    }
}
