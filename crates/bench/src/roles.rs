//! CPU time and context switches of a child process by thread role, read
//! from `/proc` with no `libc` (ROADMAP items 1 and 13).
//!
//! [`run_sampled`] starts the child and reads
//! `/proc/<child>/task/*/{comm,schedstat,status}` at a fixed period,
//! keeping the last reading per thread ID. A thread's CPU time comes from
//! `schedstat` (the kernel's `CONFIG_SCHED_INFO`), in nanoseconds; `stat`
//! gives it only in 10 ms ticks, truncated per thread, which loses about
//! a quarter of a 1 s gatebench run over its hundred-odd short-lived
//! threads. Threads come and go during a run (a
//! gatebench rig is rebuilt about every second), so a role's total is the
//! sum over every thread that ever carried its name, not a before/after
//! difference of the threads alive at the end. The child's whole CPU
//! time comes from `cutime`+`cstime` in `/proc/self/stat` once it has
//! been waited for; the ratio of the sampled sum to it is the sampler's
//! coverage. A thread loses what it ran after its last sample, so
//! coverage stays below 1 by more than the two ticks the child's total
//! can be short by.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read as _};
use std::process::{Command, Stdio};
use std::time::Duration;

/// Nanoseconds per clock tick in `/proc/*/stat` (`USER_HZ` is 100 on
/// every architecture Linux reports it on).
const NS_PER_TICK: u64 = 10_000_000;

/// Role of the child's first thread, whose name is the truncated binary
/// name.
const MAIN_ROLE: &str = "main";

/// The role of a thread named `comm`: the name with a trailing `-<n>`
/// stripped. `/proc` truncates names to 15 bytes, which can leave only
/// the dash (`mg-distributor-1` reads `mg-distributor-`), so a trailing
/// dash goes too.
fn role_of(comm: &str) -> &str {
    let trimmed = comm.trim_end_matches(|c: char| c.is_ascii_digit());
    let role = trimmed.strip_suffix('-').unwrap_or(trimmed);
    if role.is_empty() {
        comm
    } else {
        role
    }
}

/// On-CPU nanoseconds: the first field of a `schedstat` file.
fn schedstat_cpu_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// `cutime + cstime` in ticks from one `/proc/.../stat` line: the CPU
/// time of every child that has been waited for. The name field may hold
/// spaces and parentheses, so fields are counted after its last `)`.
fn stat_children_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, cutime 16 and cstime 17.
    let mut fields = rest.split_ascii_whitespace().skip(13);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

/// Voluntary and involuntary context switches from a `status` file.
fn status_switches(status: &str) -> Option<(u64, u64)> {
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
    };
    Some((
        field("voluntary_ctxt_switches:")?,
        field("nonvoluntary_ctxt_switches:")?,
    ))
}

/// The number in `"key": <n>` or `"key": {"value": <n>, …}` of a
/// one-line JSON object such as gatebench's last line.
pub fn json_number(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let mut rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(inner) = rest.strip_prefix("{\"value\": ") {
        rest = inner;
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// What one thread, or every thread of one role, used over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoleTotals {
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Voluntary context switches (the thread blocked).
    pub voluntary: u64,
    /// Involuntary context switches (the thread was preempted).
    pub involuntary: u64,
    /// Distinct thread IDs seen with this role.
    pub threads: usize,
}

/// One sampled run of a child process.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// The child's last non-empty stdout line.
    pub last_line: String,
    /// Totals by role, summed over every thread sampled.
    pub roles: BTreeMap<String, RoleTotals>,
    /// The child's whole CPU time (`cutime`+`cstime`), seconds.
    pub child_cpu_s: f64,
}

impl RoleTotals {
    fn add(&mut self, other: &RoleTotals) {
        self.cpu_s += other.cpu_s;
        self.voluntary += other.voluntary;
        self.involuntary += other.involuntary;
        self.threads += other.threads;
    }
}

impl SampledRun {
    /// Every role's totals summed: the whole sampled process.
    pub fn total(&self) -> RoleTotals {
        let mut total = RoleTotals::default();
        for r in self.roles.values() {
            total.add(r);
        }
        total
    }

    /// The share of the child's CPU time that the samples account for.
    pub fn coverage(&self) -> f64 {
        self.total().cpu_s / self.child_cpu_s
    }
}

/// Reads every thread of `pid` into `last`. A thread that exits between
/// the directory listing and its reads keeps its previous reading.
fn sample(pid: u32, last: &mut HashMap<u32, (String, RoleTotals)>) {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return;
    };
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let dir = task.path();
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).ok();
        let (Some(comm), Some(cpu_ns), Some((voluntary, involuntary))) = (
            read("comm"),
            read("schedstat").and_then(|s| schedstat_cpu_ns(&s)),
            read("status").and_then(|s| status_switches(&s)),
        ) else {
            continue;
        };
        let role = if tid == pid {
            MAIN_ROLE
        } else {
            role_of(comm.trim_end())
        };
        let reading = RoleTotals {
            cpu_s: cpu_ns as f64 * 1e-9,
            voluntary,
            involuntary,
            threads: 1,
        };
        last.insert(tid, (role.to_string(), reading));
    }
}

/// The CPU time of this process's waited-for children, in ticks.
fn children_ticks() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    stat_children_ticks(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable /proc/self/stat"))
}

/// Runs `cmd` to completion, sampling its threads every `period`. Fails
/// when the child cannot start or exits unsuccessfully. Any other child
/// of this process that is waited for meanwhile would count in
/// `child_cpu_s`, so run one at a time.
pub fn run_sampled(mut cmd: Command, period: Duration) -> io::Result<SampledRun> {
    let before = children_ticks()?;
    let mut child = cmd.stdout(Stdio::piped()).spawn()?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let pid = child.id();
    let mut last = HashMap::new();
    let status = loop {
        sample(pid, &mut last);
        if let Some(status) = child.try_wait()? {
            break status;
        }
        std::thread::sleep(period);
    };
    let child_ticks = children_ticks()? - before;
    let out = reader.join().expect("stdout reader")?;
    if !status.success() {
        return Err(io::Error::other(format!("child exited with {status}")));
    }
    let mut roles: BTreeMap<String, RoleTotals> = BTreeMap::new();
    for (role, reading) in last.into_values() {
        roles.entry(role).or_default().add(&reading);
    }
    Ok(SampledRun {
        last_line: out
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("")
            .to_string(),
        roles,
        child_cpu_s: (child_ticks * NS_PER_TICK) as f64 * 1e-9,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_strip_the_thread_index_even_when_truncated() {
        assert_eq!(role_of("mobigate-worker"), "mobigate-worker");
        assert_eq!(role_of("mg-distributor-"), "mg-distributor");
        assert_eq!(role_of("mg-distributor-0"), "mg-distributor");
        assert_eq!(role_of("streamlet-12"), "streamlet");
        assert_eq!(role_of("gatebench-pump"), "gatebench-pump");
        assert_eq!(role_of("42"), "42");
    }

    #[test]
    fn stat_fields_are_counted_after_the_last_parenthesis() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime cutime cstime ...
        let stat = "4242 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 130 20 7 3 20 0 1 0";
        assert_eq!(stat_children_ticks(stat), Some(10));
        assert_eq!(stat_children_ticks("4242 (x) S 1 2"), None);
    }

    #[test]
    fn schedstat_gives_nanoseconds() {
        assert_eq!(
            schedstat_cpu_ns("334130570 14554382 45\n"),
            Some(334_130_570)
        );
        assert_eq!(schedstat_cpu_ns(""), None);
    }

    #[test]
    fn switches_are_read_from_status() {
        let status = "Name:\tx\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_switches(status), Some((12, 3)));
        assert_eq!(status_switches("Name:\tx\n"), None);
    }

    #[test]
    fn json_numbers_are_read_bare_or_as_values() {
        let line = r#"{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"latency_p50_ms": {"value": 0.125, "unit": "ms"}, "throughput_mps": {"value": 1.5e4, "unit": "msg/s"}}}"#;
        assert_eq!(json_number(line, "attempted"), Some(1234.0));
        assert_eq!(json_number(line, "latency_p50_ms"), Some(0.125));
        assert_eq!(json_number(line, "throughput_mps"), Some(15000.0));
        assert_eq!(json_number(line, "setup_s"), None);
    }

    /// A child that spins for a while is sampled: its main thread shows
    /// up with CPU time and its last line is kept.
    #[test]
    fn a_spinning_child_is_sampled_and_its_last_line_kept() {
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done; echo first; echo '{\"attempted\": 7}'",
        ]);
        let run = run_sampled(cmd, Duration::from_millis(10)).expect("sh runs");
        assert_eq!(json_number(&run.last_line, "attempted"), Some(7.0));
        let main = run.roles.get(MAIN_ROLE).expect("main thread sampled");
        assert_eq!(main.threads, 1);
        assert!(run.child_cpu_s > 0.0, "{run:?}");
        // The child's total is two truncated tick counts; the samples are
        // in nanoseconds.
        assert!(run.total().cpu_s <= run.child_cpu_s + 0.02, "{run:?}");
        assert!(run.coverage() > 0.5, "{run:?}");
    }
}
