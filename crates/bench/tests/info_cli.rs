//! `dfly info` byte for byte: the paper's 1K-terminal evaluation size
//! and a non-maximal one whose odd leftover global port goes unused.

use std::process::Command;

/// Runs `dfly info` with `args` and returns its stdout; the command
/// must succeed and print nothing on stderr.
fn info(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dfly"))
        .arg("info")
        .args(args)
        .output()
        .expect("dfly info must spawn");
    assert!(out.status.success(), "dfly info {args:?} failed");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn info_pins_the_paper_evaluation_size() {
    assert_eq!(
        info(&["-p", "4", "-a", "8", "-H", "4"]),
        "dragonfly p=4 a=8 h=4 g=33
  terminals          1056
  routers            264
  router radix       15
  effective radix k' 64
  global channels    528
  balanced (a=2p=2h) true
  diameter (hops)    3
  avg hops           2.68
"
    );
}

#[test]
fn info_pins_a_non_maximal_size() {
    assert_eq!(
        info(&["-p", "1", "-a", "3", "-H", "1", "-g", "3"]),
        "dragonfly p=1 a=3 h=1 g=3
  terminals          9
  routers            9
  router radix       4
  effective radix k' 6
  global channels    3
  balanced (a=2p=2h) false
  diameter (hops)    3
  avg hops           2.00
"
    );
}
