//! The WiFi-sharing application written **directly against the raw
//! platform API** — the handcrafted baseline of the paper's evaluation
//! (§4).
//!
//! Everything MORENA automates must be done by hand here, and each such
//! piece is delimited with the same `@loc` markers as the MORENA version
//! so Figure 2 can be regenerated:
//!
//! * `event` — picking apart NFC intents on the activity;
//! * `convert` — manual JSON ⇄ NDEF marshalling with MIME checks;
//! * `failure` — classifying errors, bounded retry loops, failure toasts;
//! * `readwrite` — the blocking `Ndef` connect/read/write/close calls;
//! * `concurrency` — `AsyncTask` plumbing, in-flight guards, and
//!   hand-carried state between threads.

use std::collections::HashSet;
use std::sync::Arc;

use morena_android_sim::activity::{Activity, ActivityContext, ActivityHost};
use morena_android_sim::intent::{Intent, IntentAction};
use morena_android_sim::ui::ToastLog;
use morena_baseline::async_task;
use morena_baseline::ndef_tech::Ndef;
use morena_ndef::{NdefMessage, NdefRecord};
use morena_nfc_sim::tag::TagUid;
use morena_nfc_sim::world::{PhoneId, World};
use morena_obs::json;
use morena_obs::Mutex;

use crate::wifi::{WifiConfig, WifiManager};

/// The MIME type used on tags — identical to the MORENA version's, so
/// tags written by one implementation are readable by the other.
pub const WIFI_MIME: &str = "application/vnd.morena.wifi-config+json";

/// How many times a failed tag write is retried while the tag stays in
/// range before giving up and asking the user to try again.
const MAX_WRITE_ATTEMPTS: usize = 4;
/// How many times a failed read is retried.
const MAX_READ_ATTEMPTS: usize = 3;
/// How many times a failed beam is retried while a peer is present.
const MAX_BEAM_ATTEMPTS: usize = 3;

/// The activity of the handcrafted implementation. All NFC behaviour is
/// wired through `on_new_intent`, as the raw API dictates.
pub struct HandcraftedWifiActivity {
    wifi: WifiManager,
    provision: Mutex<Option<WifiConfig>>,
    // @loc-begin(concurrency)
    // Tags with a write already in flight: a second intent for the same
    // tag must not start a competing background task.
    in_flight: Mutex<HashSet<TagUid>>,
    // The raw API gives callbacks only `&self`; background retry tasks
    // need an owned handle, so the activity keeps a weak self-reference.
    weak_self: std::sync::Weak<HandcraftedWifiActivity>,
    // @loc-end(concurrency)
}

impl HandcraftedWifiActivity {
    fn new(wifi: WifiManager) -> Arc<HandcraftedWifiActivity> {
        Arc::new_cyclic(|weak_self| HandcraftedWifiActivity {
            wifi,
            provision: Mutex::new(None),
            in_flight: Mutex::new(HashSet::new()),
            weak_self: weak_self.clone(),
        })
    }

    // @loc-begin(convert)
    /// Serializes a config into the NDEF message stored on tags.
    fn config_to_message(config: &WifiConfig) -> NdefMessage {
        let json = json::to_vec(config);
        let record = NdefRecord::mime(WIFI_MIME, json).expect("record fits");
        NdefMessage::single(record)
    }

    /// Parses a config out of an NDEF message, checking the MIME type.
    fn message_to_config(message: &NdefMessage) -> Option<WifiConfig> {
        let record = message.first();
        if !record.is_mime(WIFI_MIME) {
            return None;
        }
        json::from_slice(record.payload()).ok()
    }

    /// Whether the intent shows a formatted-but-blank tag.
    fn is_blank_tag(intent: &Intent) -> bool {
        match intent.ndef_bytes() {
            Some([]) => true,
            Some(bytes) => NdefMessage::parse(bytes).map(|m| m.is_blank()).unwrap_or(false),
            None => false,
        }
    }
    // @loc-end(convert)

    /// Joins the network described by a scanned or beamed message.
    fn join_from_message(&self, ctx: &ActivityContext, message: &NdefMessage) -> bool {
        // @loc-begin(convert)
        let Some(config) = HandcraftedWifiActivity::message_to_config(message) else {
            return false;
        };
        // @loc-end(convert)
        // @loc-begin(event)
        ctx.toast(format!("Joining Wifi network {}", config.ssid));
        config.connect(&self.wifi);
        // @loc-end(event)
        true
    }

    /// Writes the armed provisioning config to a blank tag, off the main
    /// thread, with manual bounded retries.
    fn write_config_async(self: &Arc<Self>, ctx: &ActivityContext, uid: TagUid) {
        let Some(config) = self.provision.lock().clone() else { return };
        // @loc-begin(concurrency)
        // Deduplicate: only one background write per tag at a time.
        if !self.in_flight.lock().insert(uid) {
            return;
        }
        let this = Arc::clone(self);
        let nfc = ctx.nfc().clone();
        let toast_ctx = ctx.clone();
        // @loc-end(concurrency)
        // @loc-begin(convert)
        let message = HandcraftedWifiActivity::config_to_message(&config);
        // @loc-end(convert)
        // @loc-begin(concurrency)
        async_task::execute(
            ctx.handler(),
            move || {
                // @loc-end(concurrency)
                // @loc-begin(readwrite)
                let mut ndef = Ndef::get(nfc.clone(), uid);
                // @loc-end(readwrite)
                // @loc-begin(failure)
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    // @loc-end(failure)
                    // @loc-begin(readwrite)
                    let result = ndef.connect().and_then(|()| ndef.write_ndef_message(&message));
                    ndef.close();
                    // @loc-end(readwrite)
                    // @loc-begin(failure)
                    match result {
                        Ok(()) => break Ok(()),
                        Err(e)
                            if e.is_retryable()
                                && attempts < MAX_WRITE_ATTEMPTS
                                && nfc.tag_in_range(uid) =>
                        {
                            continue;
                        }
                        Err(e) => break Err(e),
                    }
                }
                // @loc-end(failure)
                // @loc-begin(concurrency)
            },
            move |outcome| {
                this.in_flight.lock().remove(&uid);
                // @loc-end(concurrency)
                // @loc-begin(event)
                match outcome {
                    Ok(()) => toast_ctx.toast("WiFi joiner created!"),
                    // @loc-end(event)
                    // @loc-begin(failure)
                    Err(_) => toast_ctx.toast("Creating WiFi joiner failed, try again."),
                    // @loc-end(failure)
                    // @loc-begin(event)
                }
                // @loc-end(event)
                // @loc-begin(concurrency)
            },
        );
        // @loc-end(concurrency)
    }
}

impl Activity for HandcraftedWifiActivity {
    fn on_new_intent(&self, ctx: &ActivityContext, intent: Intent) {
        // The activity owns an Arc to itself via the host; recover it for
        // background tasks through the context-free helper below.
        // @loc-begin(event)
        match intent.action() {
            IntentAction::NdefDiscovered => {
                if let Some(message) = intent.ndef_message() {
                    if self.join_from_message(ctx, &message) {
                        return;
                    }
                }
                if HandcraftedWifiActivity::is_blank_tag(&intent) {
                    if let Some((uid, _tech)) = intent.tag() {
                        self.on_blank_tag(ctx, uid);
                    }
                }
            }
            IntentAction::TagDiscovered => {
                // Unreadable or unformatted tag: nothing this app can do.
            }
        }
        // @loc-end(event)
    }
}

impl HandcraftedWifiActivity {
    // @loc-begin(concurrency)
    fn on_blank_tag(&self, ctx: &ActivityContext, uid: TagUid) {
        if let Some(this) = self.weak_self.upgrade() {
            this.write_config_async(ctx, uid);
        }
    }
    // @loc-end(concurrency)
}

/// The handcrafted implementation of the WiFi-sharing application, with
/// the same outward behaviour as the MORENA version.
pub struct HandcraftedWifiApp {
    host: ActivityHost,
    activity: Arc<HandcraftedWifiActivity>,
}

impl std::fmt::Debug for HandcraftedWifiApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandcraftedWifiApp").finish_non_exhaustive()
    }
}

impl HandcraftedWifiApp {
    /// Launches the app as a foreground activity on `phone`.
    pub fn launch(world: &World, phone: PhoneId, wifi: WifiManager) -> HandcraftedWifiApp {
        let activity = HandcraftedWifiActivity::new(wifi);
        let host = ActivityHost::launch(world, phone, "wifi-handcrafted", activity.clone());
        HandcraftedWifiApp { host, activity }
    }

    /// Arms provisioning: the next blank tag scanned is initialized.
    pub fn provision(&self, config: WifiConfig) {
        *self.activity.provision.lock() = Some(config);
    }

    /// Disarms provisioning.
    pub fn stop_provisioning(&self) {
        *self.activity.provision.lock() = None;
    }

    /// Shares `config` with a phone currently in proximity. Unlike the
    /// MORENA version, there is no batching: if no peer is nearby after
    /// the bounded retries, the share fails and the user must retry.
    pub fn share(&self, config: WifiConfig) {
        let ctx = self.host.context().clone();
        // @loc-begin(convert)
        let message = HandcraftedWifiActivity::config_to_message(&config);
        let bytes = message.to_bytes();
        // @loc-end(convert)
        // @loc-begin(concurrency)
        let nfc = ctx.nfc().clone();
        let toast_ctx = ctx.clone();
        async_task::execute(
            ctx.handler(),
            move || {
                // @loc-end(concurrency)
                // @loc-begin(failure)
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    // @loc-end(failure)
                    // @loc-begin(readwrite)
                    let result = nfc.beam(&bytes);
                    // @loc-end(readwrite)
                    // @loc-begin(failure)
                    match result {
                        Ok(_) => break true,
                        Err(_)
                            if attempts < MAX_BEAM_ATTEMPTS && !nfc.peers_in_range().is_empty() =>
                        {
                            continue;
                        }
                        Err(_) => break false,
                    }
                }
                // @loc-end(failure)
                // @loc-begin(concurrency)
            },
            move |ok| {
                // @loc-end(concurrency)
                // @loc-begin(event)
                if ok {
                    toast_ctx.toast("WiFi joiner shared!");
                    // @loc-end(event)
                    // @loc-begin(failure)
                } else {
                    toast_ctx.toast("Failed to share WiFi joiner, try again.");
                    // @loc-end(failure)
                    // @loc-begin(event)
                }
                // @loc-end(event)
                // @loc-begin(concurrency)
            },
        );
        // @loc-end(concurrency)
    }

    /// Reads the tag currently in range, manually retrying, and joins
    /// its network — the "user pressed refresh" path. Returns whether a
    /// join happened (used by experiments; blocks the caller).
    pub fn read_and_join_now(&self, uid: TagUid) -> bool {
        let ctx = self.host.context().clone();
        // @loc-begin(readwrite)
        let mut ndef = Ndef::get(ctx.nfc().clone(), uid);
        // @loc-end(readwrite)
        // @loc-begin(failure)
        let mut attempts = 0;
        let message = loop {
            attempts += 1;
            // @loc-end(failure)
            // @loc-begin(readwrite)
            let result = ndef.connect().and_then(|()| ndef.ndef_message());
            ndef.close();
            // @loc-end(readwrite)
            // @loc-begin(failure)
            match result {
                Ok(Some(message)) => break message,
                Ok(None) => return false,
                Err(e)
                    if e.is_retryable()
                        && attempts < MAX_READ_ATTEMPTS
                        && ctx.nfc().tag_in_range(uid) =>
                {
                    continue;
                }
                Err(_) => return false,
            }
        };
        // @loc-end(failure)
        self.activity.join_from_message(&ctx, &message)
    }

    /// The app's toast log.
    pub fn toasts(&self) -> ToastLog {
        self.host.toasts()
    }

    /// The device's WiFi manager.
    pub fn wifi(&self) -> &WifiManager {
        &self.activity.wifi
    }

    /// A barrier with the activity's main thread.
    pub fn sync(&self) {
        self.host.run_sync(|| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morena_nfc_sim::clock::VirtualClock;
    use morena_nfc_sim::link::LinkModel;
    use morena_nfc_sim::tag::Type2Tag;
    use std::time::Duration;

    fn setup() -> (World, PhoneId, HandcraftedWifiApp) {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 43);
        let phone = world.add_phone("host");
        let app = HandcraftedWifiApp::launch(&world, phone, WifiManager::new());
        (world, phone, app)
    }

    #[test]
    fn provisions_blank_tag_then_guest_joins() {
        let (world, phone, host) = setup();
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
        host.provision(WifiConfig::new("office", "pw"));
        world.tap_tag(uid, phone);
        assert!(host.toasts().wait_for("WiFi joiner created!", Duration::from_secs(10)));

        world.remove_tag_from_field(uid);
        let guest_phone = world.add_phone("guest");
        let guest = HandcraftedWifiApp::launch(&world, guest_phone, WifiManager::new());
        world.tap_tag(uid, guest_phone);
        assert!(guest.toasts().wait_for("Joining Wifi network office", Duration::from_secs(10)));
        guest.sync();
        assert_eq!(guest.wifi().current_network().as_deref(), Some("office"));
    }

    #[test]
    fn share_requires_a_peer_to_be_present() {
        let (world, phone, host) = setup();
        // No peer: the share fails after its bounded retries.
        host.share(WifiConfig::new("cafe", "espresso"));
        assert!(host.toasts().wait_for("Failed to share WiFi joiner", Duration::from_secs(10)));

        // With a peer present, the share succeeds and the guest joins.
        let guest_phone = world.add_phone("guest");
        let guest = HandcraftedWifiApp::launch(&world, guest_phone, WifiManager::new());
        world.bring_phones_together(phone, guest_phone);
        host.share(WifiConfig::new("cafe", "espresso"));
        assert!(host.toasts().wait_for("WiFi joiner shared!", Duration::from_secs(10)));
        assert!(guest.toasts().wait_for("Joining Wifi network cafe", Duration::from_secs(10)));
    }

    #[test]
    fn read_and_join_now_joins_provisioned_tag() {
        let (world, phone, host) = setup();
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(2))));
        world.tap_tag(uid, phone);
        let msg = HandcraftedWifiActivity::config_to_message(&WifiConfig::new("lab", "k"));
        host.host.context().nfc().ndef_write(uid, &msg.to_bytes()).unwrap();
        assert!(host.read_and_join_now(uid));
        host.sync();
        assert_eq!(host.wifi().current_network().as_deref(), Some("lab"));
        // Blank tag: nothing to join.
        let blank = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(3))));
        world.tap_tag(blank, phone);
        assert!(!host.read_and_join_now(blank));
    }

    #[test]
    fn conversion_round_trips_and_checks_mime() {
        let cfg = WifiConfig::new("net", "key");
        let msg = HandcraftedWifiActivity::config_to_message(&cfg);
        assert_eq!(HandcraftedWifiActivity::message_to_config(&msg), Some(cfg));
        let foreign =
            NdefMessage::single(NdefRecord::mime("application/other", b"{}".to_vec()).unwrap());
        assert_eq!(HandcraftedWifiActivity::message_to_config(&foreign), None);
    }
}
