//! The paper's debugging motivation (§1): a developer pairs `host` and
//! `date` headers, accidentally allowing them to come from *different*
//! HTTP messages. The system warns that — unlike other programs over
//! the same log — the extractor is **not** splittable by messages,
//! exposing the bug; the fixed version is certified and then run
//! distributed.
//!
//! ```sh
//! cargo run --release --example http_log_debugging
//! ```

use split_correctness::prelude::*;
use split_correctness::textgen;
use splitc_textgen::spanners;
use std::sync::Arc;

fn main() {
    let messages = splitters::http_messages();

    // The buggy extractor: host ... date with any lines (including blank
    // ones) in between.
    let buggy = spanners::host_date_buggy();
    println!("checking the host/date extractor against the message splitter…");
    match self_splittable(&buggy, &messages).unwrap() {
        Verdict::Fails(cex) => {
            println!("⚠ NOT splittable by HTTP messages — likely a bug!");
            println!(
                "  witness log:\n---\n{}\n---",
                String::from_utf8_lossy(&cex.doc)
            );
            println!(
                "  the pair {} crosses a message boundary",
                cex.tuple.display(buggy.vars())
            );
        }
        Verdict::Holds => println!("splittable (unexpected)"),
    }

    // The fixed extractor: host and date within one message.
    let fixed = spanners::host_date_fixed();
    match self_splittable(&fixed, &messages).unwrap() {
        Verdict::Holds => println!("✓ fixed extractor is self-splittable by messages"),
        Verdict::Fails(cex) => println!("still broken: {cex}"),
    }

    // The request-line extractor from §3.1 is splittable too, and the
    // system can therefore parallelize it over messages.
    let request_lines = spanners::request_line_extractor();
    assert!(self_splittable(&request_lines, &messages).unwrap().holds());
    let log = textgen::http_log(5_000, 17);
    let spanner = CompileOptions::new().compile_spanner(&request_lines);
    let split: SplitFn = Arc::new(native_splitters::paragraphs);
    let seq = evaluate_sequential(&spanner, &log);
    let par = evaluate_split(&spanner, &split, &log, 5);
    assert_eq!(seq, par);
    println!(
        "extracted {} request lines from a {} KiB log (parallel = sequential ✓)",
        seq.len(),
        log.len() / 1024
    );
}
