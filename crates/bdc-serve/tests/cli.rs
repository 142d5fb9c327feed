//! `bdc_serve` flag validation as an operator sees it: a value that would
//! stop all serving, or a flag the daemon does not have, exits with
//! status 2 before the daemon binds.

use std::process::{Command, Stdio};
use std::time::Duration;

/// Runs `bdc_serve` with `args`, killing it if it is still up after 10 s
/// (a daemon that accepted the flags never exits on its own). Returns the
/// exit code (`None` if it had to be killed) and stderr.
fn run_serve(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bdc_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bdc_serve");
    let mut code = None;
    for _ in 0..500 {
        if let Some(status) = child.try_wait().expect("poll bdc_serve") {
            code = status.code();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if code.is_none() {
        let _ = child.kill();
    }
    let out = child.wait_with_output().expect("collect stderr");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn zero_queue_cap_exits_2() {
    let (code, stderr) = run_serve(&["--queue-cap", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--queue-cap must be a positive integer"),
        "{stderr}"
    );
}

#[test]
fn zero_deadline_exits_2() {
    let (code, stderr) = run_serve(&["--deadline-ms", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--deadline-ms must be a positive integer"),
        "{stderr}"
    );
}

#[test]
fn deleted_tuning_flags_exit_2() {
    for flag in ["--conn-threads", "--max-batch", "--cache-cap"] {
        let (code, stderr) = run_serve(&[flag, "4"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}

/// SIGTERM with an idle keep-alive client connected: the daemon drains and
/// exits 0 at once, without waiting for the client to go away.
#[cfg(unix)]
#[test]
fn sigterm_with_an_idle_keep_alive_client_exits_cleanly() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    let mut child = Command::new(env!("CARGO_BIN_EXE_bdc_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bdc_serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    let port = loop {
        line.clear();
        assert!(
            stdout.read_line(&mut line).expect("read stdout") > 0,
            "no listen line"
        );
        if let Some(rest) = line.split("listening on 127.0.0.1:").nth(1) {
            break rest.split_whitespace().next().expect("port").to_string();
        }
    };

    // One request on a keep-alive connection, answered, then left idle.
    let mut client = TcpStream::connect(format!("127.0.0.1:{port}")).expect("connect");
    client
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send request");
    let mut head = [0u8; 12];
    client.read_exact(&mut head).expect("read response");
    assert_eq!(&head, b"HTTP/1.1 200");

    let sent = Instant::now();
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll bdc_serve") {
            break status;
        }
        if sent.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            panic!("bdc_serve still up 10 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(status.success(), "exit status {status}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read stdout");
    assert!(rest.contains("drained and stopped cleanly"), "{rest}");
    // The client stayed connected until the daemon had exited.
    drop(client);
}
