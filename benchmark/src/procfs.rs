//! Process and host accounting read from `/proc` (Linux only; the
//! benchmark's reference box is a Linux KVM guest).
//!
//! The parsers take the file text so unit tests can feed them samples.

use std::fs;

/// Kernel clock ticks per second in `/proc` CPU-time fields. `USER_HZ` is
/// 100 on every Linux architecture the suite builds for.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time and fault counters of this process, from `/proc/self/stat`.
/// Includes threads that have already exited (the engine's scoped
/// workers), which per-thread files would lose.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcStat {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself hold spaces or parentheses, so fields are
/// counted from the **last** `)`.
pub fn parse_stat(text: &str) -> Result<ProcStat, String> {
    let after_comm = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or("stat: no command field")?;
    // after_comm starts at field 3 (state).
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .ok_or(format!("stat: field {n} missing"))?
            .parse::<u64>()
            .map_err(|e| format!("stat: field {n}: {e}"))
    };
    Ok(ProcStat {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / TICKS_PER_SEC,
        sys_s: field(15)? as f64 / TICKS_PER_SEC,
    })
}

/// Peak resident set (`VmHWM`) in MB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(text: &str) -> Result<f64, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("status: no VmHWM line")?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = parts
        .next()
        .ok_or("status: VmHWM has no value")?
        .parse()
        .map_err(|e| format!("status: VmHWM: {e}"))?;
    match parts.next() {
        Some("kB") => Ok(kb * 1024.0 / 1e6),
        other => Err(format!("status: VmHWM unit {other:?}, expected kB")),
    }
}

/// Host-wide noise indicators from `/proc/stat`: time stolen by the
/// hypervisor and context switches. The benchmark is the box's only load,
/// so their deltas over the timed phase describe its disturbance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostStat {
    pub steal_s: f64,
    pub ctx_switches: u64,
}

pub fn parse_host_stat(text: &str) -> Result<HostStat, String> {
    let cpu = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("/proc/stat: no cpu line")?;
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: u64 = cpu
        .split_whitespace()
        .nth(8)
        .ok_or("/proc/stat: no steal column")?
        .parse()
        .map_err(|e| format!("/proc/stat: steal: {e}"))?;
    let ctxt: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("ctxt "))
        .ok_or("/proc/stat: no ctxt line")?
        .trim()
        .parse()
        .map_err(|e| format!("/proc/stat: ctxt: {e}"))?;
    Ok(HostStat {
        steal_s: steal as f64 / TICKS_PER_SEC,
        ctx_switches: ctxt,
    })
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// This process's CPU time and faults so far.
pub fn proc_stat() -> ProcStat {
    parse_stat(&read("/proc/self/stat")).unwrap_or_else(|e| panic!("{e}"))
}

/// This process's peak resident set so far, MB.
pub fn vm_hwm_mb() -> f64 {
    parse_vm_hwm_mb(&read("/proc/self/status")).unwrap_or_else(|e| panic!("{e}"))
}

/// Host steal time and context switches so far.
pub fn host_stat() -> HostStat {
    parse_host_stat(&read("/proc/stat")).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_last_paren() {
        // comm "a) (b" holds both a space and parentheses.
        let line = "4242 (a) (b) S 1 4242 4242 0 -1 4194304 \
                    1234 0 5 0 250 75 0 0 20 0 3 0 100 1000000 200 \
                    18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minor_faults, 1234);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 0.75);
        assert_eq!(s.cpu_s(), 3.25);
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert!(parse_stat("1 (x) S 1 2 3").is_err());
        assert!(parse_stat("no parens at all").is_err());
    }

    #[test]
    fn vm_hwm_in_mb() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  250000 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status).unwrap(), 256.0);
        assert!(parse_vm_hwm_mb("Name:\tx\n").is_err());
        assert!(parse_vm_hwm_mb("VmHWM:\t 5 MB\n").is_err());
    }

    #[test]
    fn host_steal_and_ctxt() {
        let stat = "cpu  147415 0 38764 240166 1978 0 119 2276 0 0\n\
                    cpu0 1 2 3 4 5 6 7 8 9 10\nintr 5\nctxt 987654\nbtime 1\n";
        let h = parse_host_stat(stat).unwrap();
        assert_eq!(h.steal_s, 22.76);
        assert_eq!(h.ctx_switches, 987_654);
        assert!(parse_host_stat("cpu 1 2 3\n").is_err());
    }

    #[test]
    fn live_files_parse() {
        assert!(proc_stat().cpu_s() >= 0.0);
        assert!(vm_hwm_mb() > 0.0);
        let _ = host_stat();
    }
}
