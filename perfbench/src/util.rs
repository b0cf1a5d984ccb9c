//! Shared helpers: error type, pass/fail tally, order statistics, the
//! result line, and small file/date utilities.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every fallible step reports a human-readable reason.
pub type Res<T> = Result<T, String>;

/// Wraps any displayable error with the step that produced it.
pub fn ctx<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Counts checked operations and the ones whose output was wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation; a failure is logged to stderr.
    pub fn check(&mut self, what: &str, outcome: Res<()>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of values recorded in whole units (the daemon's spans are in
/// whole µs), interpolated within the median's unit as for grouped
/// data, so it keeps the digits a plain median of integers loses.
pub fn whole_unit_median(xs: &[f64]) -> f64 {
    let m = median(xs);
    let unit = m.round();
    let below = xs.iter().filter(|&&x| x < unit - 0.5).count();
    let within = xs.iter().filter(|&&x| (x - unit).abs() < 0.5).count();
    if within == 0 {
        return m;
    }
    unit - 0.5 + (xs.len() as f64 / 2.0 - below as f64) / within as f64
}

/// Nearest-rank percentile `p` in (0, 1] of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Logs a step of the run to stderr with the wall time since `start`.
pub fn progress(start: Instant, step: &str) {
    eprintln!(
        "perfbench: [{:6.1} s] {step}",
        start.elapsed().as_secs_f64()
    );
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Named metrics with units, in insertion order, plus the sample count
/// behind each one (recorded in the provenance line, not the result).
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str, usize)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.entries.push((name.to_owned(), value, unit, samples));
    }

    /// Fails when a metric could not be computed (no samples, division
    /// by zero): the result line must hold finite numbers only.
    pub fn check_finite(&self) -> Res<()> {
        let bad: Vec<&str> = self
            .entries
            .iter()
            .filter(|(_, v, ..)| !v.is_finite())
            .map(|(n, ..)| n.as_str())
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(format!("non-finite metrics {bad:?}"))
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}`; non-finite values are
    /// written as 0 (the run is then already marked incorrect).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit, _)) in self.entries.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }

    /// `{"name": samples, ...}`.
    pub fn samples_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, _, _, s)| format!("\"{n}\": {s}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// FNV-1a over a file's bytes: identifies a generated input, so a cached
/// oracle is reused only for byte-identical input.
pub fn file_digest(path: &Path) -> Res<u64> {
    let bytes = std::fs::read(path).map_err(ctx(&format!("read {}", path.display())))?;
    Ok(fnv1a(FNV_OFFSET, &bytes))
}

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm), days since 1970-01-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", dbscout_telemetry::json::escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert!(median(&[]).is_nan());
        // Seven values in unit 18: 18 - 0.5 + (10 / 2 - 2) / 7.
        let binned = [17.0, 17.0, 18.0, 18.0, 18.0, 18.0, 18.0, 18.0, 18.0, 25.0];
        assert!((whole_unit_median(&binned) - (17.5 + 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn date_format() {
        let d = utc_now();
        assert_eq!(d.len(), 20, "{d}");
        assert!(d.starts_with("20"), "{d}");
    }
}
