//! End-to-end causal tracing: a beam from one phone triggers a tag
//! write in the receiver's handler, and the whole chain — sender op,
//! in-band NDEF trace record, receiver handler, handler-issued write —
//! carries **one** trace id with correct parent/child span edges. A tag
//! sighting likewise roots one trace over discovery's pre-read, the
//! detection and the write its callback submits.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use morena::core::beam::{BeamListener, BeamReceiver, Beamer};
use morena::core::convert::ConvertError;
use morena::obs::{analyze_traces, export_chrome_trace, EventKind, OpKind, TraceContext};
use morena::prelude::*;

/// On beam receipt, write the payload to a tag and report both steps.
struct WriteOnBeam {
    tag: Arc<TagReference<StringConverter>>,
    received: std::sync::mpsc::Sender<()>,
    written: std::sync::mpsc::Sender<bool>,
}

impl BeamListener<StringConverter> for WriteOnBeam {
    fn on_beam_received(&self, value: String) {
        let done = self.written.clone();
        let err = self.written.clone();
        self.tag.write(
            value,
            move |_| {
                let _ = done.send(true);
            },
            move |_, _| {
                let _ = err.send(false);
            },
        );
        let _ = self.received.send(());
    }
}

/// The trace context of the first matching traced event.
fn traced(
    events: &[morena::obs::ObsEvent],
    mut pick: impl FnMut(&EventKind) -> bool,
) -> (TraceContext, &EventKind) {
    events
        .iter()
        .find_map(|e| {
            let ctx = e.trace?;
            pick(&e.kind).then_some((ctx, &e.kind))
        })
        .expect("expected a traced event of the requested kind")
}

/// Drive beam → handler → write across two phones and assert the span
/// chain, the critical-path analysis, and the Chrome flow export.
fn beam_chain_carries_one_trace(policy: ExecutionPolicy, seed: u64) {
    // A real clock: the analyzer's dominant-hop/component verdicts need
    // wall time to actually accrue on each hop.
    let world = World::with_link(Arc::new(SystemClock::new()), LinkModel::instant(), seed);
    let ring = Arc::new(RingSink::new(16_384));
    world.obs().install(ring.clone());

    let sender = world.add_phone("sender");
    let receiver = world.add_phone("receiver");
    let sctx = MorenaContext::headless_with(&world, sender, policy);
    let rctx = MorenaContext::headless_with(&world, receiver, policy);
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(7))));

    let tag = Arc::new(TagReference::new(
        &rctx,
        uid,
        TagTech::Type2,
        Arc::new(StringConverter::plain_text()),
    ));
    let (received_tx, received_rx) = channel();
    let (written_tx, written_rx) = channel();
    let _inbox = BeamReceiver::new(
        &rctx,
        Arc::new(StringConverter::plain_text()),
        Arc::new(WriteOnBeam { tag: Arc::clone(&tag), received: received_tx, written: written_tx }),
    );

    let beamer = Beamer::new(&sctx, Arc::new(StringConverter::plain_text()));
    world.bring_phones_together(sender, receiver);
    beamer.beam_ok("relayed".to_string());

    // The handler has run (and queued its write); now hand it the tag.
    received_rx.recv_timeout(Duration::from_secs(10)).expect("beam never arrived");
    world.tap_tag(uid, receiver);
    assert!(
        written_rx.recv_timeout(Duration::from_secs(10)).unwrap_or(false),
        "handler write did not succeed"
    );
    tag.close();
    world.obs().flush();
    let events = ring.snapshot();

    // One trace id spans both phones, with root → receipt → write edges.
    let (push, _) =
        traced(&events, |k| matches!(k, EventKind::OpEnqueued { op: OpKind::Push, .. }));
    assert!(push.is_root(), "the sender's beam op must be the trace root");
    let (receipt, receipt_kind) = traced(&events, |k| matches!(k, EventKind::BeamReceived { .. }));
    let EventKind::BeamReceived { phone, from, .. } = receipt_kind else { unreachable!() };
    assert_eq!((*phone, *from), (receiver.as_u64(), sender.as_u64()));
    assert_eq!(receipt.trace_id, push.trace_id, "receipt must join the sender's trace");
    assert_eq!(receipt.parent_span_id, push.span_id, "receipt span must parent on the beam op");
    let (write, _) =
        traced(&events, |k| matches!(k, EventKind::OpEnqueued { op: OpKind::Write, .. }));
    assert_eq!(write.trace_id, push.trace_id, "handler write must join the sender's trace");
    assert_eq!(write.parent_span_id, receipt.span_id, "write span must parent on the receipt");

    // The payload the handler saw had the trace record stripped.
    assert_eq!(tag.cached().as_deref(), Some("relayed"));

    // The critical-path analyzer sees one connected, two-phone trace
    // whose hop attributions each satisfy the sum invariant.
    let analysis = analyze_traces(&events);
    let trace =
        analysis.iter().find(|a| a.trace_id == push.trace_id).expect("analysis for the beam trace");
    assert!(trace.connected, "span graph must be one tree: {trace:?}");
    assert!(trace.spans >= 3, "expected >=3 spans, got {}", trace.spans);
    assert!(trace.phones >= 2, "trace must span both phones, got {}", trace.phones);
    assert!(trace.hops.len() >= 2, "beam op and handler write are both hops");
    assert!(trace.dominant_hop.is_some() && trace.dominant_component.is_some());
    for hop in &trace.hops {
        let b = &hop.breakdown;
        assert_eq!(b.out_of_range_nanos + b.exchange_nanos + b.queue_nanos, b.total_nanos);
    }

    // The Chrome export links the chain with flow events.
    let chrome = export_chrome_trace(&events);
    assert!(chrome.contains("\"cat\":\"trace\""), "flow events missing from export");
    assert!(chrome.contains("\"ph\":\"s\"") && chrome.contains("\"ph\":\"f\""));
    assert!(chrome.contains(&format!("\"name\":\"trace-{}\"", push.trace_id)));
}

#[test]
fn beam_chain_carries_one_trace_sharded() {
    beam_chain_carries_one_trace(ExecutionPolicy::Sharded { workers: 2 }, 62);
}

/// Writes a stamp onto every tag it detects and reports the outcome.
struct StampOnDetect(std::sync::mpsc::Sender<bool>);

impl DiscoveryListener<StringConverter> for StampOnDetect {
    fn on_tag_detected(&self, reference: TagReference<StringConverter>) {
        let (ok, failed) = (self.0.clone(), self.0.clone());
        reference.write(
            "stamped".to_string(),
            move |_| {
                let _ = ok.send(true);
            },
            move |_, _| {
                let _ = failed.send(false);
            },
        );
    }

    fn on_tag_redetected(&self, _: TagReference<StringConverter>) {}
}

/// A sighting roots one trace: the discovery pre-read's exchanges, the
/// detection, the write the detection callback submits on the minted
/// reference and that write's own exchanges all carry its trace id.
#[test]
fn discovery_pre_read_and_detection_write_share_the_sighting_trace() {
    use morena::sim::proto::{write_ndef, DirectLink};

    let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 64);
    let ring = Arc::new(RingSink::new(4_096));
    world.obs().install(ring.clone());
    let phone = world.add_phone("kiosk");
    let ctx = MorenaContext::headless(&world, phone);
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(8))));
    let badge = StringConverter::plain_text().to_message(&"badge".to_string()).unwrap();
    world
        .with_tag(uid, |tag| {
            write_ndef(&mut DirectLink::new(tag), TagTech::Type2, &badge.to_bytes())
        })
        .expect("tag in the world")
        .expect("fits an NTAG215");

    let (tx, rx) = channel();
    let _disco = TagDiscoverer::new(
        &ctx,
        Arc::new(StringConverter::plain_text()),
        Arc::new(StampOnDetect(tx)),
    );
    world.tap_tag(uid, phone);
    assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), "the stamp write failed");
    world.obs().flush();
    let events = ring.snapshot();

    let (sighting, _) = traced(&events, |k| matches!(k, EventKind::TagDetected { .. }));
    assert!(sighting.is_root(), "a sighting roots its trace");
    let (write, _) =
        traced(&events, |k| matches!(k, EventKind::OpEnqueued { op: OpKind::Write, .. }));
    assert_eq!(write.trace_id, sighting.trace_id, "the callback's write joins the sighting");
    let detected_at = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::TagDetected { .. }))
        .expect("a detection");
    let exchanges: Vec<_> =
        events.iter().filter(|e| matches!(e.kind, EventKind::PhysExchange { .. })).collect();
    let pre_read = events[..detected_at]
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PhysExchange { .. }))
        .count();
    assert!(pre_read > 0 && exchanges.len() > pre_read, "pre-read and write both exchanged");
    for exchange in exchanges {
        assert_eq!(
            exchange.trace.map(|t| t.trace_id),
            Some(sighting.trace_id),
            "every exchange belongs to the sighting's trace: {exchange:?}"
        );
    }
}

/// A trace-stamped message is passed through untouched by the
/// pre-trace baseline `Ndef` tech: old peers neither strip nor choke
/// on the reserved record, and a tracing peer reading the same bytes
/// recovers the app content (wire compatibility in both directions).
#[test]
fn baseline_ndef_tech_ignores_the_trace_record() {
    use morena::baseline::ndef_tech::Ndef;
    use morena::core::convert::TagDataConverter;
    use morena::core::tracewire::{strip_trace, with_trace};

    let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 88);
    let phone = world.add_phone("legacy");
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(6))));
    world.tap_tag(uid, phone);

    let app = StringConverter::plain_text().to_message(&"hello".to_string()).unwrap();
    let stamped = with_trace(&app, TraceContext::root(9, 1));

    let mut ndef = Ndef::get(NfcHandle::new(world.clone(), phone), uid);
    ndef.connect().unwrap();
    ndef.write_ndef_message(&stamped).unwrap();
    let read_back = ndef.ndef_message().unwrap().expect("message on tag");
    assert_eq!(read_back.to_bytes(), stamped.to_bytes());
    assert_eq!(strip_trace(&read_back).to_bytes(), app.to_bytes());
}

/// With sampling off (`SampleRate::never`) no event carries a context
/// and nothing rides the wire — but delivery still works.
#[test]
fn unsampled_traces_stay_off_events_and_wire() {
    let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 63);
    let ring = Arc::new(RingSink::new(4_096));
    world.obs().install(ring.clone());

    let sender = world.add_phone("sender");
    let receiver = world.add_phone("receiver");
    let sctx = MorenaContext::headless(&world, sender);
    sctx.set_default_policy(Policy::default().with_trace_sample(SampleRate::never()));
    let rctx = MorenaContext::headless(&world, receiver);

    let (tx, rx) = channel();
    struct Forward(std::sync::mpsc::Sender<String>);
    impl BeamListener<StringConverter> for Forward {
        fn on_beam_received(&self, value: String) {
            self.0.send(value).unwrap();
        }
    }
    let _inbox =
        BeamReceiver::new(&rctx, Arc::new(StringConverter::plain_text()), Arc::new(Forward(tx)));
    let beamer = Beamer::new(&sctx, Arc::new(StringConverter::plain_text()));
    world.bring_phones_together(sender, receiver);
    beamer.beam_ok("quiet".to_string());
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), "quiet");
    world.obs().flush();

    let events = ring.snapshot();
    assert!(!events.is_empty());
    assert!(
        events.iter().all(|e| e.trace.is_none()),
        "unsampled contexts must never reach the event stream"
    );
    assert!(analyze_traces(&events).is_empty());
}

/// Hands the route's message to the listener as is, so a listener sees
/// exactly what the inbound route gave the converter.
struct WholeMessage;

impl TagDataConverter for WholeMessage {
    type Value = NdefMessage;

    fn mime_type(&self) -> &str {
        "text/plain"
    }

    fn to_message(&self, value: &NdefMessage) -> Result<NdefMessage, ConvertError> {
        Ok(value.clone())
    }

    fn from_message(&self, message: &NdefMessage) -> Result<NdefMessage, ConvertError> {
        Ok(message.clone())
    }
}

/// Reports every value its condition and its delivery see, tagged with
/// the stage.
struct Witness(std::sync::mpsc::Sender<(&'static str, NdefMessage)>);

impl BeamListener<WholeMessage> for Witness {
    fn on_beam_received(&self, value: NdefMessage) {
        let _ = self.0.send(("beam", value));
    }

    fn check_condition(&self, value: &NdefMessage) -> bool {
        let _ = self.0.send(("beam condition", value.clone()));
        true
    }
}

impl PeerListener<WholeMessage> for Witness {
    fn on_message(&self, _from: PhoneId, value: NdefMessage) {
        let _ = self.0.send(("peer", value));
    }

    fn check_condition(&self, _from: PhoneId, value: &NdefMessage) -> bool {
        let _ = self.0.send(("peer condition", value.clone()));
        true
    }
}

/// One traced beam reaches a `BeamReceiver` and a `PeerInbox` on the
/// same phone: each condition and each listener sees the content with
/// the trace record stripped, each counter rises by one, and each
/// receipt event is a child of the sender's push span. A beam of a MIME
/// type the converter rejects reaches neither.
#[test]
fn one_traced_beam_reaches_a_beam_receiver_and_a_peer_inbox_alike() {
    let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 65);
    let ring = Arc::new(RingSink::new(4_096));
    world.obs().install(ring.clone());
    let sender = world.add_phone("sender");
    let receiver = world.add_phone("receiver");
    let sctx = MorenaContext::headless(&world, sender);
    let rctx = MorenaContext::headless(&world, receiver);

    let (tx, rx) = channel();
    let _beams = BeamReceiver::new(&rctx, Arc::new(WholeMessage), Arc::new(Witness(tx.clone())));
    let _inbox = PeerInbox::new(&rctx, Arc::new(WholeMessage), Arc::new(Witness(tx)));
    world.bring_phones_together(sender, receiver);
    let before = world.obs().metrics().snapshot();

    let rejected = Beamer::new(&sctx, Arc::new(StringConverter::new("application/other")));
    block_on(rejected.beam_async("wrong type".to_string())).expect("the push lands");
    let beamer = Beamer::new(&sctx, Arc::new(StringConverter::plain_text()));
    beamer.beam_ok("both".to_string());

    let content = StringConverter::plain_text().to_message(&"both".to_string()).unwrap();
    let mut seen: Vec<&str> = (0..4)
        .map(|_| {
            let (stage, value) = rx.recv_timeout(Duration::from_secs(10)).expect("a delivery");
            assert_eq!(value, content, "{stage} must see the stripped content only");
            stage
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, ["beam", "beam condition", "peer", "peer condition"]);
    assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "nothing else arrives");

    let delta = world.obs().metrics().snapshot().delta(&before);
    assert_eq!(delta.counter("beam.received"), 1);
    assert_eq!(delta.counter("peer.received"), 1);

    world.obs().flush();
    let events = ring.snapshot();
    let receipts: Vec<_> = events
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::BeamReceived { .. } | EventKind::PeerReceived { .. })
        })
        .collect();
    assert_eq!(receipts.len(), 2, "one receipt event per receiver: {receipts:?}");
    assert!(receipts.iter().any(|e| matches!(e.kind, EventKind::BeamReceived { .. })));
    assert!(receipts.iter().any(|e| matches!(e.kind, EventKind::PeerReceived { .. })));
    for receipt in receipts {
        let hop = receipt.trace.expect("a receipt joins the sender's trace");
        let push = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::OpEnqueued { op: OpKind::Push, .. }))
            .find_map(|e| e.trace.filter(|push| push.trace_id == hop.trace_id))
            .expect("the sender's push span");
        assert_eq!(hop.parent_span_id, push.span_id, "a child of the push span: {receipt:?}");
        assert_ne!(hop.span_id, push.span_id);
    }
}
