//! The logstream stage kernels: field-by-field parsing, windowed
//! per-service aggregation, summary formatting, and the firehose digest.
//!
//! Every driver — serial, linear chain, sharded graph — runs exactly these
//! functions; the drivers differ only in how the kernels are wired.

use std::collections::BTreeMap;

use crate::logstream::LogConfig;
use crate::util::fnv1a;

/// Severity of a parsed line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Routine traffic.
    Info,
    /// Suspicious but non-failing.
    Warn,
    /// A failed request (counted per window).
    Error,
}

/// One parsed log line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Clock tick the line was emitted at.
    pub tick: u64,
    /// Service index (parsed back out of the `svc-NN` name).
    pub service: u32,
    /// Severity.
    pub level: Level,
    /// Request latency in microseconds.
    pub latency_us: u64,
    /// Digest of the raw line (folded into per-window signatures).
    pub digest: u64,
}

fn field<'l>(line: &'l str, key: &str) -> &'l str {
    let start = line
        .find(key)
        .unwrap_or_else(|| panic!("malformed log line: missing {key}: {line}"))
        + key.len();
    let rest = &line[start..];
    &rest[..rest.find(' ').unwrap_or(rest.len())]
}

/// Parses one log line, charging `cfg.parse_work` extra rounds of digest
/// mixing (the workload's CPU knob).
pub fn parse_line(cfg: &LogConfig, line: &str) -> LogRecord {
    let tick: u64 = field(line, "tick=").parse().expect("tick field");
    let service: u32 = field(line, "svc=svc-").parse().expect("svc field");
    let level = match field(line, "level=") {
        "ERROR" => Level::Error,
        "WARN" => Level::Warn,
        _ => Level::Info,
    };
    let latency_us: u64 = field(line, "latency_us=").parse().expect("latency field");
    let mut digest = fnv1a(line.as_bytes());
    for _ in 0..cfg.parse_work {
        // splitmix-style avalanche rounds: deterministic busywork standing
        // in for the enrichment real log pipelines do per record.
        digest = digest.wrapping_add(0x9E37_79B9_7F4A_7C15);
        digest = (digest ^ (digest >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        digest = (digest ^ (digest >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        digest ^= digest >> 31;
    }
    LogRecord {
        tick,
        service,
        level,
        latency_us,
        digest,
    }
}

/// Extracts the routing key (service index) from a *raw* line without a
/// full parse — what a keyed fan-out distributor does to route records
/// before the expensive per-record work runs on the shards. The
/// distributor is a serial section of the fan-out, so this takes the
/// fixed-offset fast path the generator's fixed-width fields permit
/// (`tick=NNNNNN svc=svc-DD …`), falling back to a field scan for
/// free-form lines.
pub fn service_key(line: &str) -> u64 {
    let b = line.as_bytes();
    // "tick=NNNNNN svc=svc-" is 20 bytes; exactly two service digits must
    // follow (a third digit means a wider id — fall back to the scan).
    if b.len() > 22 && &b[12..20] == b"svc=svc-" && !b[22].is_ascii_digit() {
        let (d1, d0) = (b[20].wrapping_sub(b'0'), b[21].wrapping_sub(b'0'));
        if d1 < 10 && d0 < 10 {
            return (d1 * 10 + d0) as u64;
        }
    }
    field(line, "svc=svc-").parse().expect("svc field")
}

/// Cheap order-sensitive digest of a raw line (the firehose branch).
pub fn line_digest(line: &str) -> u64 {
    fnv1a(line.as_bytes())
}

/// Folds one more line digest into the firehose checksum (order matters).
pub fn firehose_fold(acc: u64, digest: u64) -> u64 {
    acc.rotate_left(5) ^ digest.wrapping_mul(0x1000_0000_01b3)
}

/// A tumbling aggregation window: `(window index, service)`.
pub type WindowKey = (u64, u32);

/// Aggregated statistics of one `(window, service)` cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowAgg {
    /// Lines observed.
    pub count: u64,
    /// `ERROR` lines observed.
    pub errors: u64,
    /// Sum of latencies (for the mean).
    pub latency_sum: u64,
    /// Maximum latency.
    pub latency_max: u64,
    /// Order-sensitive digest of the cell's records — equal across
    /// drivers only if each cell sees its records in serial order.
    pub signature: u64,
}

/// Folds `rec` into its window cell. The map is ordered by [`WindowKey`],
/// so flushing it yields the globally sorted summary stream.
pub fn fold_record(cfg: &LogConfig, map: &mut BTreeMap<WindowKey, WindowAgg>, rec: &LogRecord) {
    let window = rec.tick / cfg.window_ticks.max(1);
    let cell = map.entry((window, rec.service)).or_default();
    cell.count += 1;
    if rec.level == Level::Error {
        cell.errors += 1;
    }
    cell.latency_sum += rec.latency_us;
    cell.latency_max = cell.latency_max.max(rec.latency_us);
    cell.signature = firehose_fold(cell.signature, rec.digest);
}

/// Renders one summary line (the pipeline's ordered output).
pub fn summary_line(key: &WindowKey, agg: &WindowAgg) -> String {
    let mean = agg.latency_sum / agg.count.max(1);
    format!(
        "window={:04} svc=svc-{:02} n={} err={} lat_mean_us={} lat_max_us={} sig={:016x}",
        key.0, key.1, agg.count, agg.errors, mean, agg.latency_max, agg.signature
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logstream::{corpus, LogConfig};

    #[test]
    fn parse_roundtrips_generated_lines() {
        let cfg = LogConfig::small();
        let lines = corpus(&cfg);
        assert_eq!(lines.len(), cfg.records);
        for (i, line) in lines.iter().enumerate() {
            let rec = parse_line(&cfg, line);
            assert_eq!(rec.tick, (i / cfg.records_per_tick) as u64);
            assert!((rec.service as usize) < cfg.services);
            assert_eq!(rec.service as u64, service_key(line));
            assert!(rec.latency_us < 250_000);
        }
    }

    #[test]
    fn service_key_handles_wide_service_ids() {
        // 3-digit ids defeat the fixed-offset fast path; the scan fallback
        // must still return the full index.
        let cfg = LogConfig {
            services: 200,
            ..LogConfig::small()
        };
        let lines = corpus(&cfg);
        for line in lines.iter().take(500) {
            assert_eq!(
                service_key(line),
                parse_line(&cfg, line).service as u64,
                "key mismatch on {line}"
            );
        }
        assert_eq!(
            service_key("tick=000001 svc=svc-123 level=INFO latency_us=000001 req=00000000"),
            123
        );
    }

    #[test]
    fn parse_work_changes_digest_only() {
        let cfg0 = LogConfig {
            parse_work: 0,
            ..LogConfig::small()
        };
        let cfg9 = LogConfig {
            parse_work: 9,
            ..LogConfig::small()
        };
        let line = "tick=000001 svc=svc-03 level=ERROR latency_us=000777 req=deadbeef";
        let (a, b) = (parse_line(&cfg0, line), parse_line(&cfg9, line));
        assert_ne!(a.digest, b.digest);
        assert_eq!(
            (a.tick, a.service, a.level, a.latency_us),
            (b.tick, b.service, b.level, b.latency_us)
        );
    }

    #[test]
    fn aggregation_is_order_sensitive_within_a_cell() {
        let cfg = LogConfig::small();
        let l1 = "tick=000000 svc=svc-00 level=INFO latency_us=000010 req=00000001";
        let l2 = "tick=000000 svc=svc-00 level=ERROR latency_us=000020 req=00000002";
        let (r1, r2) = (parse_line(&cfg, l1), parse_line(&cfg, l2));
        let mut fwd = BTreeMap::new();
        fold_record(&cfg, &mut fwd, &r1);
        fold_record(&cfg, &mut fwd, &r2);
        let mut rev = BTreeMap::new();
        fold_record(&cfg, &mut rev, &r2);
        fold_record(&cfg, &mut rev, &r1);
        let (f, r) = (fwd[&(0, 0)], rev[&(0, 0)]);
        assert_eq!(
            (f.count, f.errors, f.latency_sum),
            (r.count, r.errors, r.latency_sum)
        );
        assert_ne!(f.signature, r.signature, "signature must expose reordering");
    }
}
