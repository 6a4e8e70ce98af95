//! E7 — fused multi-spanner fleet evaluation vs sequential per-spanner
//! passes.
//!
//! A deployment of split-correct extraction rarely runs *one* rule: a
//! rule catalog of tens to hundreds of extractors is evaluated over the
//! same corpus. The sequential shape — one [`splitc_exec::CorpusRunner`] per rule —
//! re-streams, re-splits, and re-scans the corpus once per rule. The
//! fleet engine ([`splitc_exec::FleetRunner`]) fuses the catalog into
//! one pass: one streaming split, one shared byte partition, one merged
//! multi-needle Aho–Corasick scan dispatching each segment only to the
//! members with literal evidence in it.
//!
//! The workload is a keyword-mention catalog
//! (`splitc_textgen::spanners::keyword_fleet`): member `i` extracts
//! `<keyword_i><digits>` tokens, and corpora
//! (`splitc_textgen::keyword_corpus_shards`) mention a uniformly random
//! keyword in each sentence (**dense** flavor) or in one sentence in 16
//! (**sparse** flavor). Each (flavor × fleet size) point emits two
//! rows, `engine` `fused` and `sequential`, with `scale` = fleet size;
//! fleet sizes are 10 / 50 / 200. Fused and sequential relations are
//! asserted byte-identical on every point; the CI gate requires fused
//! over sequential by the configured floor at the 50-member sparse
//! point.
//!
//! One invocation emits every row (the `--engine` flag is
//! accepted-and-ignored for harness uniformity, like
//! `e6_sparse_prefilter`).

use splitc_bench::{bench_json, ms, scaled, time_best, x, Table};
use splitc_exec::{CompileOptions, Engine, ExecSpanner, RunnerOptions};
use splitc_spanner::splitter;
use splitc_textgen::{spanners, CorpusConfig};
use std::sync::Arc;

fn main() {
    let workers: usize = std::env::var("SC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let opts = RunnerOptions::new().workers(workers);
    // Prefilter: the strongest sequential baseline.
    let compile = CompileOptions::new().engine(Engine::Prefilter);
    let fleet_sizes = [10usize, 50, 200];
    let max_fleet = *fleet_sizes.iter().max().unwrap();
    // Flavors: how often a sentence mentions any keyword at all.
    let flavors = [("sparse", 16usize), ("dense", 1usize)];
    let shards = 8;
    let per_doc = scaled(1 << 19).max(16 << 10);

    let mut table = Table::new(
        &format!("E7 — fused fleet vs sequential per-spanner passes at {workers} workers"),
        &[
            "corpus",
            "fleet",
            "sequential ms",
            "fused ms",
            "speedup",
            "fan-out",
        ],
    );

    for (flavor, needle_every) in flavors {
        let cfg = CorpusConfig {
            target_bytes: per_doc,
            seed: 0xF1EE7 + needle_every as u64,
            ..Default::default()
        };
        // One corpus per flavor, mentioning keywords of the *largest*
        // fleet: smaller fleets see the same bytes and simply own fewer
        // of the mentions (their other sentences are pure noise).
        let owned = splitc_textgen::keyword_corpus_shards(shards, &cfg, max_fleet, needle_every);
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let total_bytes: usize = refs.iter().map(|d| d.len()).sum();
        println!(
            "E7 [{flavor}]: {shards} shards, {:.1} MiB, keyword every {needle_every} sentence(s)",
            total_bytes as f64 / (1 << 20) as f64,
        );

        for &n in &fleet_sizes {
            let vsas = spanners::keyword_fleet(n);
            let fleet = Arc::new(compile.compile_fleet(&vsas));
            let runner = opts.fleet_runner(fleet.clone(), splitter::sentences().compile());
            let (fused, fused_wall) = time_best(2, || runner.run_slices(&refs));
            let fused_tuples: usize = fused
                .relations
                .iter()
                .flat_map(|row| row.iter().map(|r| r.len()))
                .sum();

            let members: Vec<ExecSpanner> =
                vsas.iter().map(|v| compile.compile_spanner(v)).collect();
            let (seq, seq_wall) = time_best(2, || {
                members
                    .iter()
                    .map(|m| {
                        opts.corpus_runner(m.clone(), splitter::sentences().compile())
                            .run_slices(&refs)
                    })
                    .collect::<Vec<_>>()
            });
            let seq_tuples: usize = seq
                .iter()
                .flat_map(|r| r.relations.iter().map(|rel| rel.len()))
                .sum();

            for (mi, res) in seq.iter().enumerate() {
                for (di, rel) in res.relations.iter().enumerate() {
                    assert_eq!(
                        &fused.relations[di][mi], rel,
                        "fused and sequential disagree: doc {di} member {mi} [{flavor}]"
                    );
                }
            }
            assert_eq!(fused_tuples, seq_tuples);

            bench_json(
                &format!("e7_fleet/{flavor}"),
                "fused",
                total_bytes,
                n as f64,
                fused_wall,
                fused_tuples,
            );
            bench_json(
                &format!("e7_fleet/{flavor}"),
                "sequential",
                total_bytes,
                n as f64,
                seq_wall,
                seq_tuples,
            );
            table.row(&[
                flavor.into(),
                format!("{n}"),
                ms(seq_wall),
                ms(fused_wall),
                x(seq_wall.as_secs_f64() / fused_wall.as_secs_f64().max(1e-9)),
                format!("{:.2}", fused.stats.fan_out()),
            ]);
        }
    }
    table.print();
    println!(
        "\nShape check: sequential cost grows with fleet size (one full\n\
         split + scan pass per member), while the fused pass splits once\n\
         and lets the shared multi-needle scan dispatch each segment only\n\
         to the members whose keyword it mentions — fan-out stays near\n\
         the per-sentence mention rate instead of the fleet size. The CI\n\
         gate asserts the floor at the 50-member sparse point; recorded\n\
         quiet-host factors live in BENCH_pr6.json."
    );
}
