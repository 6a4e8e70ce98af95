//! Quickstart: certify split-correctness, then evaluate in parallel.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use split_correctness::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. An information extractor as a regex formula: capture every
    //    run of 'a's, anywhere in the document (the paper's stand-in for
    //    a sentence-local extractor such as NER).
    let p = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();

    // 2. A splitter: sentences — maximal period-free chunks.
    let s = splitters::sentences();
    println!("splitter `sentences` disjoint? {}", s.is_disjoint());

    // 3. Certify self-splittability (Theorem 5.16): evaluating P per
    //    sentence and unioning the shifted results equals evaluating P
    //    on the whole document.
    match self_splittable(&p, &s).unwrap() {
        Verdict::Holds => println!("P is self-splittable by sentences ✓"),
        Verdict::Fails(cex) => {
            println!("not splittable: {cex}");
            return;
        }
    }

    // 4. Contrast: a sentence-crossing extractor is rejected, with a
    //    concrete counterexample document.
    let crossing = Rgx::parse(".*x{a\\.a}.*").unwrap().to_vsa().unwrap();
    match self_splittable(&crossing, &s).unwrap() {
        Verdict::Fails(cex) => println!(
            "crossing extractor rejected; witness doc {:?}, tuple {}",
            String::from_utf8_lossy(&cex.doc),
            cex.tuple.display(crossing.vars()),
        ),
        Verdict::Holds => unreachable!(),
    }

    // 5. Cash in the certificate: parallel evaluation over sentences.
    let spanner = CompileOptions::new().compile_spanner(&p);
    let split: SplitFn = Arc::new(native_splitters::sentences);
    let doc = b"aa bbb aaa. baab. ab aaaa b".repeat(2000);
    let t0 = std::time::Instant::now();
    let sequential = evaluate_sequential(&spanner, &doc);
    let t_seq = t0.elapsed();
    let t0 = std::time::Instant::now();
    let parallel = evaluate_split(&spanner, &split, &doc, 5);
    let t_par = t0.elapsed();
    assert_eq!(sequential, parallel, "certified: identical semantics");
    println!(
        "{} tuples; sequential {:?} vs split+parallel(5) {:?} — {:.2}x",
        sequential.len(),
        t_seq,
        t_par,
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
    );
}
