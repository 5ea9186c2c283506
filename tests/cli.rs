//! The shipped binaries, driven the way a user runs them: `ctfl estimate`
//! on a CSV written to a temporary directory, and `ctfl_server --listen`
//! over real loopback TCP.

use ctfl::fl::netclient::{NetClient, RetryPolicy, TcpConnector};
use ctfl::fl::server::FederationService;
use ctfl::fl::wire::{JobSpec, Message};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Output, Stdio};

/// Kills the child if the test fails before it exits on its own.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `ctfl estimate` with `extra` arguments on a temporary CSV named
/// after `tag`: the first three `owners` hold 60 rows each and the last
/// holds one.
fn estimate(tag: &str, owners: [&str; 4], extra: &[&str]) -> Output {
    let mut csv = String::from("x1,x2,owner,y\n");
    for owner in &owners[..3] {
        for i in 0..60u32 {
            let (x1, x2) = ((i * 7) % 10, (i * 3 + 1) % 10);
            let y = if x1 > x2 { "yes" } else { "no" };
            writeln!(csv, "{x1},{x2},{owner},{y}").unwrap();
        }
    }
    writeln!(csv, "1,2,{},no", owners[3]).unwrap();
    let path = std::env::temp_dir().join(format!("ctfl-cli-{tag}-{}.csv", std::process::id()));
    std::fs::write(&path, csv).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_ctfl"))
        .arg("estimate")
        .arg("--train")
        .arg(&path)
        .args(["--label", "y", "--client-column", "owner"])
        .args(extra)
        .output()
        .expect("run ctfl estimate");
    std::fs::remove_file(&path).unwrap();
    out
}

#[test]
fn estimate_keeps_a_one_row_client_in_training() {
    // A split that shuffles every row together can send d's only row to
    // the test set (seed 3 did), leaving client 3 with no training data.
    let out = estimate(
        "one-row",
        ["a", "b", "c", "d"],
        &["--seed", "3", "--rounds", "3", "--local-epochs", "1"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}\n{stdout}\n{stderr}", out.status);
    assert!(stdout.contains("client 3: 1 records"), "{stdout}");
}

#[test]
fn estimate_rejects_a_test_fraction_outside_the_unit_interval() {
    for fraction in ["1.5", "-1", "nan", "0"] {
        let out = estimate("fraction", ["a", "b", "c", "d"], &["--test-fraction", fraction]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--test-fraction {fraction}: {stderr}");
        assert!(stderr.contains("invalid value for --test-fraction"), "{stderr}");
    }
}

#[test]
fn estimate_rejects_a_numeric_client_id_that_is_not_a_non_negative_integer() {
    // `as u32` used to merge -1 into 0 and 0.25/0.75 into 0.
    for (owners, bad) in [(["-1", "0", "1", "2"], "-1"), (["0.25", "0.75", "1", "2"], "0.25")] {
        let out = estimate("client-id", owners, &["--rounds", "1", "--local-epochs", "1"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "owners {owners:?}: {stdout}\n{stderr}");
        let message = format!("row 0: client id {bad} is not a non-negative integer");
        assert!(stderr.contains(&message), "{stderr}");
    }
}

#[test]
fn server_answers_a_tcp_client_until_shutdown() {
    let mut server = Reaped(
        Command::new(env!("CARGO_BIN_EXE_ctfl_server"))
            .args(["--listen", "127.0.0.1:0", "--once", "--idle-timeout", "5"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn ctfl_server"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    let addr = first.trim().strip_prefix("listening on ").expect("bound address line").to_string();

    let policy = RetryPolicy { deadline_nanos: Some(30_000_000_000), ..RetryPolicy::default() };
    let mut client = NetClient::new(TcpConnector { addr }, policy, 7).unwrap();
    client.ping().unwrap();
    let spec = JobSpec::clean(7, 4, 3);
    let expected = FederationService::execute_job(3, &spec).unwrap();
    assert_eq!(client.submit_job(3, &spec).unwrap(), expected);
    assert_eq!(client.poll_job(3).unwrap(), expected);
    assert_eq!(client.request(&Message::Shutdown).unwrap(), Message::Shutdown);

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("served 4 requests (shutdown)"), "{rest}");
    assert!(server.0.wait().unwrap().success());
}
