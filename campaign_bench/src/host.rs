//! Host-side readings from `/proc`: process CPU time, minor page faults,
//! peak resident memory and machine-wide steal time. They diagnose noise;
//! no run is ever dropped because of them.

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// Fields of `/proc/self/stat` after the command name, so field `n` of
/// proc(5) is at index `n - 3`.
fn self_stat() -> Option<Vec<u64>> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = &text[text.rfind(')')? + 1..];
    // The state letter (field 3) does not parse; keep it as 0.
    Some(after_comm.split_whitespace().map(|f| f.parse().unwrap_or(0)).collect())
}

/// Minor page faults of this process so far.
pub fn minor_faults() -> u64 {
    self_stat().and_then(|f| f.get(10 - 3).copied()).unwrap_or(0)
}

/// User plus system CPU seconds of this process so far.
fn cpu_seconds() -> f64 {
    self_stat()
        .map(|f| (f.get(14 - 3).copied().unwrap_or(0) + f.get(15 - 3).copied().unwrap_or(0)) as f64)
        .unwrap_or(0.0)
        / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else { return (0, 0) };
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let total: u64 = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// What the host did during a timed window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    wall: std::time::Instant,
    cpu_s: f64,
    ticks: (u64, u64),
}

impl Window {
    /// Starts a window now.
    pub fn start() -> Self {
        Window { wall: std::time::Instant::now(), cpu_s: cpu_seconds(), ticks: cpu_ticks() }
    }

    /// One-line JSON record of the window: wall and process CPU seconds,
    /// and the share of machine CPU time stolen by the hypervisor.
    pub fn record(&self) -> String {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - self.cpu_s;
        let (steal, total) = cpu_ticks();
        let d_total = total.saturating_sub(self.ticks.1).max(1);
        let steal_pct = steal.saturating_sub(self.ticks.0) as f64 / d_total as f64 * 100.0;
        format!(
            "{{\"nproc\":{},\"threads\":{},\"wall_s\":{wall_s:.3},\"cpu_s\":{cpu_s:.2},\
             \"steal_pct\":{steal_pct:.2}}}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            par::thread_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live() {
        let before = minor_faults();
        let pages = vec![1u8; 8 << 20];
        std::hint::black_box(&pages);
        assert!(minor_faults() > before, "touching 8 MiB must fault pages in");
        assert!(peak_rss_mb() >= 8.0);
        let (steal, total) = cpu_ticks();
        assert!(total > 0 && steal <= total);
    }
}
