//! Output pins for the simulator artefacts.
//!
//! Each test runs one `repro` experiment at [`Effort::Quick`] and folds
//! its CSV files (name and contents) and its summary findings (key and
//! value) into an FNV-1a-64 digest, compared with a committed constant.
//! The simulator is deterministic, so a digest moves only when some
//! decision, tag, counter or rendered number in the figure does.
//!
//! Rule: a change that claims to keep behaviour — a performance change
//! or a simplification — may not move a pin unless CHANGES.md names the
//! figure and the reason. Do not re-record a constant to make such a
//! change pass. A change that means to alter a figure re-records its
//! pin and says so in the same place.
//!
//! `fig7` and `table1` drive real OS threads and time them, so their
//! output is not reproducible and they have no pin.

use sfs_bench::common::Effort;
use sfs_bench::EXPERIMENTS;

/// FNV-1a-64 over the artefact's CSVs and findings, each field closed
/// by a zero byte so that moving text between fields changes the digest.
fn digest(id: &str) -> u64 {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == id)
        .expect("known experiment id");
    let res = run(Effort::Quick);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut field = |s: &str| {
        for b in s.bytes().chain([0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, contents) in &res.csv {
        field(name);
        field(contents);
    }
    for (key, value) in &res.summary {
        field(key);
        field(value);
    }
    h
}

fn pin(id: &str, expected: u64) {
    let got = digest(id);
    assert_eq!(
        got, expected,
        "{id} --quick output moved: digest {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn fig1_pin() {
    pin("fig1", 0x8867_189c_7afe_a0ff);
}

#[test]
fn fig3_pin() {
    pin("fig3", 0xa530_424e_c6d8_4999);
}

#[test]
fn fig4_pin() {
    pin("fig4", 0x5528_4817_8777_7dd4);
}

#[test]
fn fig5_pin() {
    pin("fig5", 0x0f90_fd9d_1ab5_bb8d);
}

#[test]
fn fig6a_pin() {
    pin("fig6a", 0xc32c_8a0a_1a05_96d4);
}

#[test]
fn fig6b_pin() {
    pin("fig6b", 0xf831_7643_8902_8035);
}

#[test]
fn fig6c_pin() {
    pin("fig6c", 0x17ee_6c83_9d17_e75a);
}
