//! T3b — certification engine scaling: the antichain-pruned on-the-fly
//! containment engine vs the determinize-first reference, measured
//! through the batch certifier (`splitc_exec::certify::certify_many`)
//! on growing spanner and alphabet sizes.
//!
//! Two families:
//!
//! * **needle** — `.* a[ab]^k x{b+} .*` self-splittability by
//!   sentences. The `Σ*aΣ^k` byte guard forces determinize-first to
//!   build the `2^k`-subset sliding-window automaton up front; the
//!   antichain frontier stays polynomial (sparse frontier subsets prune
//!   their rich same-depth siblings). This family is the CI gate: at
//!   the largest `k`, the antichain path must beat determinize-first by
//!   the configured floor.
//! * **branch** — `branching_extractor(n)` fleets (one marker letter
//!   per branch, so the byte-class alphabet grows with `n`), certified
//!   as one batch sharing the sentence splitter.
//!
//! Both engines must return identical verdicts — asserted on every
//! point. Rows use the standard `BENCH` schema with engines
//! `antichain` / `determinize`.

use splitc_bench::families::{branching_extractor, needle_extractor};
use splitc_bench::{bench_json, ms, scale, time_best, x, Table};
use splitc_exec::certify::{certify_many, CertifyConfig, CertifyResult};
use splitc_spanner::splitter;
use splitc_spanner::vsa::Vsa;
use splitc_spanner::CheckStrategy;

fn run(
    spanners: &[Vsa],
    s: &splitc_spanner::Splitter,
    pairs: &[(usize, usize)],
    strategy: CheckStrategy,
    iters: usize,
) -> (CertifyResult, std::time::Duration) {
    let config = CertifyConfig {
        workers: 4,
        strategy,
    };
    time_best(iters, || certify_many(spanners, s, pairs, &config))
}

fn main() {
    let s = splitter::sentences();
    // SC_SCALE trims the largest (slowest, determinize-dominated)
    // points for CI smoke runs; the gated largest needle point is kept
    // at every scale.
    let full = scale() >= 1.0;
    let iters = if full { 3 } else { 2 };

    // Needle family: one self-splittability pair per point; exponential
    // determinization vs polynomial antichain frontier.
    let needle_ks: &[usize] = if full {
        &[4, 6, 8, 10, 12]
    } else {
        &[4, 6, 8, 10]
    };
    let mut t = Table::new(
        "T3b.1 — needle self-splittability: antichain vs determinize-first",
        &["k", "|Q(P)|", "antichain ms", "determinize ms", "speedup"],
    );
    for &k in needle_ks {
        let spanners = vec![needle_extractor(k)];
        let pairs = vec![(0usize, 0usize)];
        let (ra, da) = run(&spanners, &s, &pairs, CheckStrategy::Antichain, iters);
        let (rd, dd) = run(
            &spanners,
            &s,
            &pairs,
            CheckStrategy::DeterminizeFirst,
            iters,
        );
        assert!(
            ra.all_hold() && rd.all_hold(),
            "needle k={k}: both engines must certify (needle spans never \
             contain a delimiter)"
        );
        bench_json(
            &format!("t3_certification_scaling/needle_k={k}"),
            "antichain",
            0,
            k as f64,
            da,
            0,
        );
        bench_json(
            &format!("t3_certification_scaling/needle_k={k}"),
            "determinize",
            0,
            k as f64,
            dd,
            0,
        );
        t.row(&[
            k.to_string(),
            spanners[0].num_states().to_string(),
            ms(da),
            ms(dd),
            x(dd.as_secs_f64() / da.as_secs_f64()),
        ]);
    }
    t.print();

    // Branch family: an n-extractor fleet certified as one batch; the
    // marker letters grow the byte-class alphabet with n.
    let branch_ns: &[usize] = if full { &[1, 2, 3, 4] } else { &[1, 2, 3] };
    let mut t = Table::new(
        "T3b.2 — branching fleets (batch certification, growing alphabet)",
        &["n", "pairs", "antichain ms", "determinize ms", "speedup"],
    );
    for &n in branch_ns {
        let spanners: Vec<Vsa> = (1..=n).map(branching_extractor).collect();
        let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        let (ra, da) = run(&spanners, &s, &pairs, CheckStrategy::Antichain, iters);
        let (rd, dd) = run(
            &spanners,
            &s,
            &pairs,
            CheckStrategy::DeterminizeFirst,
            iters,
        );
        for (a, d) in ra.outcomes.iter().zip(&rd.outcomes) {
            assert_eq!(
                a.holds(),
                d.holds(),
                "branch n={n}: engines disagree on pair {:?}",
                a.pair
            );
        }
        bench_json(
            &format!("t3_certification_scaling/branch_n={n}"),
            "antichain",
            0,
            n as f64,
            da,
            0,
        );
        bench_json(
            &format!("t3_certification_scaling/branch_n={n}"),
            "determinize",
            0,
            n as f64,
            dd,
            0,
        );
        t.row(&[
            n.to_string(),
            pairs.len().to_string(),
            ms(da),
            ms(dd),
            x(dd.as_secs_f64() / da.as_secs_f64()),
        ]);
    }
    t.print();
    println!(
        "\nShape check: the determinize-first column grows with 2^k on the\n\
         needle family while the antichain column stays polynomial — the\n\
         pruned frontier is what makes fleet-scale certification viable\n\
         (the CI gate asserts the floor at the largest needle point)."
    );
}
