//! The paper's tables and figures, one entry each. [`ENTRIES`] is the
//! index: `paper list` prints it, `paper <name>…` runs the named entries
//! in the order given, `paper all` runs every one. Entries are names, not
//! options; an unknown name is a usage error (exit code 2).
//!
//! What stands in for ImageNet / Set5 / COCO in the trained entries, and
//! why the claims under test survive the swap, is in the `bconv-train`
//! crate docs.

mod analytic;
mod table;
mod trained;

use std::process::ExitCode;

use bconv_tensor::error::TensorError;

/// `(name, what it prints, how)`.
type Entry = (&'static str, &'static str, fn() -> Result<(), TensorError>);

/// Every experiment of the harness. The `trained` entries take minutes
/// each, the `analytic` ones milliseconds.
const ENTRIES: [Entry; 15] = [
    ("fig1", "analytic: feature-map volumes of VGG-16 / VDSR vs on-chip BRAM", analytic::fig1),
    ("fig5", "trained: accuracy vs blocking ratio, fixed vs hierarchical blocking", trained::fig5),
    ("fig6", "trained: block-padding mode (zero / replicate / reflect) vs accuracy", trained::fig6),
    ("fig7", "trained: 8-bit QAT and PTQ of baseline and blocked networks", trained::fig7),
    ("fig8", "trained: detection AP vs blocking granularity and scope", trained::fig8),
    ("fig9", "analytic: feature-map size per layer of MobileNet / ResNet", analytic::fig9),
    ("fig12", "analytic: design-space exploration of VGG-16, latency vs BRAM", analytic::fig12),
    ("fig13", "analytic: designs A-G vs the off-chip baseline", analytic::fig13),
    ("table1", "trained: top-1 of baseline / blocked / fine-tuned networks", trained::table1),
    ("table2", "trained: non-square blocking on the ResNet analogue", trained::table2),
    ("table4", "trained: VDSR PSNR under blocking patterns and depths", trained::table4),
    ("table5", "trained: Tables III + V, detection AP with a blocked backbone", trained::table5),
    ("table6", "analytic: fused-layer configurations A-G of VGG-16", analytic::table6),
    ("table7", "analytic: comparison with published VGG-16 accelerators", analytic::table7),
    ("table9", "analytic: Tables VIII + IX, the VDSR accelerator on Ultra96", analytic::table9),
];

const USAGE: &str = "usage: paper list | all | <name>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = match args.as_slice() {
        [one] if one == "list" => {
            for (name, caption, _) in ENTRIES {
                println!("{name:<8} {caption}");
            }
            return ExitCode::SUCCESS;
        }
        [one] if one == "all" => ENTRIES.iter().map(|e| e.0).collect(),
        names => names.iter().map(String::as_str).collect(),
    };
    // Resolve every name before running any: a typo must not cost the
    // minutes of the entries named before it.
    let mut selected = Vec::with_capacity(names.len());
    for name in &names {
        let Some(entry) = ENTRIES.iter().find(|e| e.0 == *name) else {
            eprintln!("paper: unknown entry {name:?}\n{USAGE}");
            return ExitCode::from(2);
        };
        selected.push(entry);
    }
    if selected.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    for (name, _, run) in selected {
        if let Err(e) = run() {
            eprintln!("paper {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
