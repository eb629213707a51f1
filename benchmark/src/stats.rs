//! Sample statistics and process measurements.

/// Arithmetic mean; NaN for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The `q`-quantile by linear interpolation between order statistics
/// (the "inclusive" definition). `+inf` samples sort last, so a refused
/// request pushes the upper percentiles to infinity. NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[hi] == sorted[lo] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), NaN where
/// procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words: a digest that is stable across runs,
/// platforms and compiler versions, for comparing decisions bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a float in by its bits.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Fold a string in.
    pub fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_sort_infinity_last() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        let refused = [1.0, 2.0, f64::INFINITY];
        assert_eq!(quantile(&refused, 1.0), f64::INFINITY);
        assert_eq!(median(&refused), 2.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let mut a = Digest::default();
        a.float(1.0);
        a.float(2.0);
        let mut b = Digest::default();
        b.float(2.0);
        b.float(1.0);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.float(0.0);
        let mut d = Digest::default();
        d.float(-0.0);
        assert_ne!(c.value(), d.value());
    }
}
