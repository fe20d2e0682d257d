//! Lean process spawner for the benchmark's closed loop.
//!
//! A child's peak resident set (`ru_maxrss`) starts from the resident
//! set of the process that spawned it, so a CLI spawned straight from
//! the Python harness would report the harness's ~15 MB. This spawner
//! is a small process that starts each request, times it from spawn to
//! reap, and reports the child's own exit status, CPU and peak RSS.
//!
//! Protocol, one request per stdin line, fields separated by tabs:
//! `timeout_ms  stdout_path  cwd  program  arg...`. One reply line per
//! request: `exit_code  wall_ns  cpu_us  maxrss_kb  timed_out(0|1)`.
//! A child that outlives its timeout is killed with SIGKILL.

use std::io::{BufRead, Write};
use std::process::{Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

extern "C" {
    fn waitid(idtype: i32, id: u32, infop: *mut u8, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut i64) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

/// The child currently running, as the watchdog sees it.
#[derive(Default)]
struct Job {
    pid: i32,
    deadline: Option<Instant>,
    exited: bool,
    killed: bool,
}

fn watchdog(state: Arc<(Mutex<Job>, Condvar)>) {
    let (lock, cv) = &*state;
    let mut job = lock.lock().unwrap();
    loop {
        match job.deadline {
            Some(d) if !job.exited => {
                let now = Instant::now();
                if now >= d {
                    // The child is not reaped yet (the main thread reaps
                    // only after marking it exited), so the pid is still
                    // ours to signal.
                    unsafe { kill(job.pid, SIGKILL) };
                    job.killed = true;
                    job.deadline = None;
                } else {
                    job = cv.wait_timeout(job, d - now).unwrap().0;
                }
            }
            _ => job = cv.wait(job).unwrap(),
        }
    }
}

fn run_one(line: &str, state: &Arc<(Mutex<Job>, Condvar)>) -> Result<String, String> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() < 4 {
        return Err(format!("malformed request {line:?}"));
    }
    let timeout_ms: u64 = fields[0].parse().map_err(|_| "bad timeout".to_string())?;
    let out = std::fs::File::create(fields[1]).map_err(|e| format!("{}: {e}", fields[1]))?;
    let (lock, cv) = &**state;

    let t0 = Instant::now();
    let child = Command::new(fields[3])
        .args(&fields[4..])
        .current_dir(fields[2])
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", fields[3]))?;
    let pid = child.id() as i32;
    {
        let mut job = lock.lock().unwrap();
        *job = Job {
            pid,
            deadline: Some(t0 + Duration::from_millis(timeout_ms)),
            exited: false,
            killed: false,
        };
        cv.notify_one();
    }
    let mut info = [0u8; 128];
    unsafe { waitid(P_PID, pid as u32, info.as_mut_ptr(), WEXITED | WNOWAIT) };
    let killed = {
        let mut job = lock.lock().unwrap();
        job.exited = true;
        job.killed
    };
    let mut status = 0i32;
    let mut usage = [0i64; 18];
    let reaped = unsafe { wait4(pid, &mut status, 0, usage.as_mut_ptr()) };
    let wall = t0.elapsed();
    if reaped != pid {
        return Err(format!("wait4({pid}) failed"));
    }
    drop(child);
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    let cpu_us = usage[0] * 1_000_000 + usage[1] + usage[2] * 1_000_000 + usage[3];
    Ok(format!(
        "{code}\t{}\t{cpu_us}\t{}\t{}",
        wall.as_nanos(),
        usage[4],
        killed as u8
    ))
}

fn main() {
    let state = Arc::new((Mutex::new(Job::default()), Condvar::new()));
    let dog = Arc::clone(&state);
    std::thread::spawn(move || watchdog(dog));
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let reply = match run_one(&line, &state) {
            Ok(r) => r,
            Err(e) => format!("error\t{e}"),
        };
        if writeln!(stdout, "{reply}")
            .and_then(|_| stdout.flush())
            .is_err()
        {
            break;
        }
    }
}
