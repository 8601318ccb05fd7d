//! The `paper` binary's index and its analytic entries: the fifteen names
//! are the only index of the harness, an unknown name is a usage error,
//! and the seven entries that train nothing still print the numbers the
//! unit tests of the crates they read pin.

use std::process::{Command, Output};

const NAMES: [&str; 15] = [
    "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig12", "fig13", "table1", "table2", "table4",
    "table5", "table6", "table7", "table9",
];

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().unwrap()
}

/// Standard output of a successful `paper <entry>` run.
fn entry(name: &str) -> String {
    let run = paper(&[name]);
    assert!(run.status.success(), "paper {name}: {}", String::from_utf8_lossy(&run.stderr));
    String::from_utf8(run.stdout).unwrap()
}

/// The whitespace-separated cells of the first line starting with `label`.
fn row<'a>(out: &'a str, label: &str) -> Vec<&'a str> {
    let line = out.lines().find(|l| l.starts_with(label));
    line.unwrap_or_else(|| panic!("no {label:?} row in:\n{out}")).split_whitespace().collect()
}

#[test]
fn list_prints_exactly_the_fifteen_entries() {
    let run = paper(&["list"]);
    assert!(run.status.success());
    let out = String::from_utf8(run.stdout).unwrap();
    let listed: Vec<&str> = out.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(listed, NAMES);
}

#[test]
fn unknown_or_missing_names_are_usage_errors() {
    // A typo anywhere on the line runs nothing, not even the valid names.
    for args in [&["fig2"][..], &["table6", "tabel7"], &["--all"], &[]] {
        let run = paper(args);
        assert_eq!(run.status.code(), Some(2), "paper {args:?}");
        assert!(run.stdout.is_empty(), "paper {args:?} ran something");
        assert!(String::from_utf8_lossy(&run.stderr).contains("usage: paper"));
    }
}

#[test]
fn analytic_entries_print_the_numbers_the_unit_tests_pin() {
    // vgg::tests: conv1-1 of VGG-16 is 51.38 Mbit at 16 bits.
    assert_eq!(row(&entry("fig1"), "conv1-1")[1], "51.38");
    // models analysis::tests: MobileNet-V1 fuses its first four layers.
    assert!(entry("fig9").contains("fuse first 4 layers (conv3_dw)"));
    // dse::tests: many points, some but not all of them feasible.
    let fig12 = entry("fig12");
    let counts = fig12.lines().find(|l| l.contains("design points")).unwrap();
    let counts: Vec<&str> = counts.split_whitespace().collect();
    let (points, feasible): (usize, usize) =
        (counts[0].parse().unwrap(), counts[3].parse().unwrap());
    assert!(points > 100 && (1..points).contains(&feasible), "{counts:?}");
    // fusion::tests: a fused design moves the input and the output only —
    // 3·224² + 512·14² elements, 4.0 Mbit at design A's 16 bits.
    assert_eq!(row(&entry("fig13"), "A ").last(), Some(&"4.0"));
    // fusion::tests: every design A–G fits the ZC706's 1090 BRAM18.
    let table6 = entry("table6");
    let bram = row(&table6, "BRAM18");
    assert_eq!(&bram[8..], ["(capacity", "1090)"]);
    assert!(bram[1..8].iter().all(|b| b.parse::<usize>().unwrap() <= 1090), "{bram:?}");
    // report::tests: the paper's own row.
    assert!(row(&entry("table7"), "Ours (paper)").contains(&"374.98"));
    // vdsr_accel::tests: block convolution moves two images, 33.18 Mbit.
    assert_eq!(row(&entry("table9"), "baseline+BConv").last(), Some(&"33.18"));
}
