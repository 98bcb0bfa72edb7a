//! OpenMetrics/Prometheus text exposition: a renderer over
//! [`MetricsSnapshot`] plus a tiny dependency-free HTTP/1.1 listener so
//! a real Prometheus can scrape a running swarm (or a future
//! `morena-relayd`).
//!
//! The renderer speaks the OpenMetrics text format: `# TYPE` metadata,
//! `_total`-suffixed counters, cumulative histogram buckets with an
//! explicit `+Inf` bound and seconds-based `le` labels (the registry's
//! histograms are nanoseconds internally; Prometheus convention is
//! base-unit seconds), and a terminating `# EOF` line. Metric names are
//! sanitized from the registry's dotted names (`ops.submitted` →
//! `morena_ops_submitted`); anything outside `[a-zA-Z0-9_]` maps to
//! `_`, so exotic names degrade, never corrupt the exposition.
//!
//! The [`ExpositionServer`] is deliberately minimal rather than a web
//! framework: one accept thread, serial request handling (concurrency
//! bounded at one in-flight scrape — a scraper pool hammering the port
//! queues in the kernel backlog), read/write timeouts so a stuck client
//! cannot wedge the thread, an 8 KiB request cap, `Connection: close`
//! on every response, and a prompt, joining shutdown. Each scrape
//! evaluates the watchdog against a fresh inspector snapshot, so the
//! `morena_health` gauge is live, not cached.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::inspect::{HealthReport, InspectorSnapshot, Watchdog, WatchdogConfig};
use crate::metrics::{MetricsSnapshot, BUCKET_BOUNDS_NANOS};
use crate::recorder::Recorder;
use crate::timeseries::health_level;

/// The `Content-Type` the exposition endpoint serves.
pub const OPENMETRICS_CONTENT_TYPE: &str =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// Sanitize a registry metric name into an OpenMetrics-legal name with
/// the `morena_` namespace prefix: `op.attempt_ns` →
/// `morena_op_attempt_ns`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("morena_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn seconds(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Render a metrics snapshot (and optionally a live inspector snapshot
/// plus its health report) as OpenMetrics text, terminated by `# EOF`.
///
/// Counters render as `<name>_total`; gauges as-is; histograms as
/// cumulative `_bucket{le="…"}` series in seconds with `+Inf`, `_sum`,
/// and `_count`. The inspector contributes `morena_health` (0 healthy /
/// 1 degraded / 2 stalled — see
/// [`crate::timeseries::health_level`]),
/// `morena_health_findings`, `morena_mem_bytes`,
/// `morena_queue_depth`, and `morena_loops`.
pub fn render_openmetrics(
    metrics: &MetricsSnapshot,
    inspect: Option<(&InspectorSnapshot, &HealthReport)>,
) -> String {
    let mut out = String::with_capacity(4096);
    for (name, &value) in &metrics.counters {
        let name = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE {name} counter\n{name}_total {value}\n"));
    }
    for (name, &value) in &metrics.gauges {
        let name = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for (name, hist) in &metrics.histograms {
        // Histograms are named `*_ns` internally; the exposition is in
        // seconds, so swap the unit suffix rather than lying about it.
        let base = sanitize_metric_name(name);
        let base = base.strip_suffix("_ns").map(|b| format!("{b}_seconds")).unwrap_or(base);
        out.push_str(&format!("# TYPE {base} histogram\n"));
        let mut cumulative = 0u64;
        for (i, &bound) in BUCKET_BOUNDS_NANOS.iter().enumerate() {
            cumulative += hist.counts.get(i).copied().unwrap_or(0);
            out.push_str(&format!("{base}_bucket{{le=\"{}\"}} {cumulative}\n", seconds(bound)));
        }
        out.push_str(&format!("{base}_bucket{{le=\"+Inf\"}} {}\n", hist.count()));
        out.push_str(&format!("{base}_sum {}\n", seconds(hist.sum_nanos)));
        out.push_str(&format!("{base}_count {}\n", hist.count()));
    }
    if let Some((snapshot, report)) = inspect {
        let queue_depth: u64 = snapshot.loops().map(|l| l.queue_depth as u64).sum();
        let loops = snapshot.loops().count();
        out.push_str(&format!(
            "# TYPE morena_health gauge\nmorena_health {}\n",
            health_level(report.health)
        ));
        out.push_str(&format!(
            "# TYPE morena_health_findings gauge\nmorena_health_findings {}\n",
            report.findings.len()
        ));
        out.push_str(&format!(
            "# TYPE morena_mem_bytes gauge\nmorena_mem_bytes {}\n",
            report.total_mem_bytes
        ));
        out.push_str(&format!(
            "# TYPE morena_queue_depth gauge\nmorena_queue_depth {queue_depth}\n"
        ));
        out.push_str(&format!("# TYPE morena_loops gauge\nmorena_loops {loops}\n"));
    }
    out.push_str("# EOF\n");
    out
}

/// The blocking scrape endpoint. Construct with
/// [`ExpositionServer::bind`]; the listener thread stops and joins on
/// [`ExpositionServer::shutdown`] or drop.
pub struct ExpositionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl ExpositionServer {
    /// Bind `addr` (use port 0 for an ephemeral port — see
    /// [`ExpositionServer::local_addr`]) and serve scrapes of
    /// `recorder`'s metrics and health. `clock` stamps the inspector
    /// snapshot each scrape with the world's notion of now.
    pub fn bind(
        addr: impl ToSocketAddrs,
        recorder: Arc<Recorder>,
        clock: impl Fn() -> u64 + Send + 'static,
        watchdog: WatchdogConfig,
    ) -> std::io::Result<ExpositionServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let scrapes = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_scrapes = Arc::clone(&scrapes);
        let handle = std::thread::Builder::new()
            .name("morena-expose".into())
            .spawn(move || {
                let watchdog = Watchdog::with_config(watchdog);
                while !thread_stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ =
                                serve_one(stream, &recorder, &clock, &watchdog, &thread_scrapes);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })
            .expect("spawn exposition thread");
        Ok(ExpositionServer { addr, stop, scrapes, handle: Some(handle) })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Successful scrapes served so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Stop accepting, finish any in-flight response, and join the
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ExpositionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_one(
    mut stream: TcpStream,
    recorder: &Arc<Recorder>,
    clock: &(impl Fn() -> u64 + Send),
    watchdog: &Watchdog,
    scrapes: &AtomicU64,
) -> std::io::Result<()> {
    // The accepted socket may inherit the listener's non-blocking mode
    // on some platforms; this handler wants plain blocking reads under
    // a timeout.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    // Read headers up to the blank line, capped at 8 KiB.
    let mut request = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        request.extend_from_slice(&buf[..n]);
        if request.windows(4).any(|w| w == b"\r\n\r\n") || request.len() > 8 * 1024 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&request);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_string())
    } else if path == "/metrics" || path == "/" {
        let now = clock();
        let metrics = recorder.metrics().snapshot();
        let snapshot = recorder.inspector().snapshot(now);
        let report = watchdog.evaluate_with_metrics(&snapshot, &metrics);
        recorder.metrics().counter("obs.expose.scrapes").inc();
        scrapes.fetch_add(1, Ordering::Relaxed);
        (
            "200 OK",
            OPENMETRICS_CONTENT_TYPE,
            render_openmetrics(&metrics, Some((&snapshot, &report))),
        )
    } else if path == "/health" {
        let now = clock();
        let snapshot = recorder.inspector().snapshot(now);
        let report = watchdog.evaluate_with_metrics(&snapshot, &recorder.metrics().snapshot());
        ("200 OK", "application/json; charset=utf-8", report.to_json())
    } else {
        ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string())
    };

    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn sanitizes_names_into_the_namespace() {
        assert_eq!(sanitize_metric_name("ops.submitted"), "morena_ops_submitted");
        assert_eq!(sanitize_metric_name("weird name/π"), "morena_weird_name__");
    }

    #[test]
    fn renders_counters_gauges_histograms_and_eof() {
        let reg = MetricsRegistry::new();
        reg.counter("ops.submitted").add(4);
        reg.gauge("queue.depth").set(-2);
        reg.histogram("op.attempt_ns").observe(1_500);
        reg.histogram("op.attempt_ns").observe(3_000_000);
        let text = render_openmetrics(&reg.snapshot(), None);
        assert!(
            text.contains("# TYPE morena_ops_submitted counter\nmorena_ops_submitted_total 4\n")
        );
        assert!(text.contains("# TYPE morena_queue_depth gauge\nmorena_queue_depth -2\n"));
        // Unit-swapped histogram name with cumulative seconds buckets.
        assert!(text.contains("# TYPE morena_op_attempt_seconds histogram\n"));
        assert!(text.contains("morena_op_attempt_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("morena_op_attempt_seconds_count 2\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_ordered() {
        let reg = MetricsRegistry::new();
        reg.histogram("op.total_ns").observe(1_500); // (1us, 2us]
        reg.histogram("op.total_ns").observe(1_500);
        reg.histogram("op.total_ns").observe(500_000_000_000); // overflow
        let text = render_openmetrics(&reg.snapshot(), None);
        let mut last_le = f64::NEG_INFINITY;
        let mut last_count = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("morena_op_total_seconds_bucket{le=\"") else {
                continue;
            };
            let (le, count) = rest.split_once("\"} ").unwrap();
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap() };
            let count: u64 = count.parse().unwrap();
            assert!(le > last_le, "le must increase: {line}");
            assert!(count >= last_count, "cumulative counts must not decrease: {line}");
            last_le = le;
            last_count = count;
            buckets += 1;
        }
        assert_eq!(buckets, BUCKET_BOUNDS_NANOS.len() + 1);
        assert_eq!(last_count, 3); // +Inf sees everything, incl. overflow
    }

    #[test]
    fn server_serves_scrapes_over_real_tcp_and_shuts_down() {
        let recorder = Arc::new(Recorder::new());
        recorder.metrics().counter("ops.submitted").add(7);
        let mut server = ExpositionServer::bind(
            ("127.0.0.1", 0),
            Arc::clone(&recorder),
            || 42,
            WatchdogConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr();

        let scrape = |path: &str| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
            let mut out = String::new();
            stream.read_to_string(&mut out).unwrap();
            out
        };

        let response = scrape("/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "got: {response}");
        assert!(response.contains(OPENMETRICS_CONTENT_TYPE));
        assert!(response.contains("morena_ops_submitted_total 7"));
        assert!(response.contains("morena_health 0"));
        assert!(response.trim_end().ends_with("# EOF"));

        let health = scrape("/health");
        assert!(health.contains("\"health\":\"healthy\""));
        assert!(scrape("/nope").starts_with("HTTP/1.1 404"));
        assert_eq!(server.scrapes(), 1); // only /metrics counts as a scrape
        assert_eq!(recorder.metrics().snapshot().counter("obs.expose.scrapes"), 1);

        let started = std::time::Instant::now();
        server.shutdown();
        server.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may let one last connect through the dead backlog;
                // what matters is nothing answers.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
                let _ = s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n");
                let mut buf = [0u8; 1];
                !matches!(s.read(&mut buf), Ok(1..))
            }
        );
    }
}
