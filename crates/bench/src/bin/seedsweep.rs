//! Seed-sweep study: regenerates Fig. 4a and Table IV on degrading NVM
//! media across a range of fault seeds and reports the retirement-cost
//! overhead against the fault-free baseline.
//!
//! Each seed shuffles the per-line endurance jitter, so the sweep shows
//! how sensitive the paper's headline persistence numbers are to *where*
//! the media wears out, not just whether it does. Seeds run as
//! independent fork-join items: each runs its grids serially under its
//! own media-fault model, so the whole sweep scales with `--jobs` while
//! every per-seed result stays byte-identical to a serial run.
//!
//! Each seed also runs the data-integrity grid
//! ([`run_data_integrity_sweep_strategy`]) with a per-seed corruption load,
//! charting the healed-vs-poisoned frontier: how much damage the checksum
//! patrol absorbs before graceful degradation starts costing pages.
//!
//! `--faults <seed>` moves the base of the swept seed range;
//! `--stuck <N>` scatters `N` stuck-at cells per seed on top of the wear
//! model; `--plot <path>` renders the per-seed overheads and the
//! integrity survival fraction as a self-contained SVG (pure markup, no
//! external tooling).

use kindle_bench::*;
use kindle_core::experiments::{run_fig4a, run_table4, Fig4aParams, Table4Params};
use kindle_core::mem::MediaFaultConfig;
use kindle_faults::{run_data_integrity_sweep_strategy, SweepStrategy};

/// The swept fault model: the wear budget is cranked far below the
/// default (4096 writes/line) so the hot lines of even a quick run — the
/// PTE consistency log ring and the page-table frames themselves — wear
/// out and exercise the retry-then-retire loop. Stuck cells default to
/// *off* but `--stuck <N>` turns them on: with the per-line ECP
/// correction budget armed, a stuck bit costs a correction entry at
/// write time instead of silently corrupting stored data, so even the
/// NVM-resident page tables survive and every seed completes.
fn sweep_faults(seed: u64, stuck: usize) -> MediaFaultConfig {
    let correction_entries = if stuck > 0 { STUCK_CORRECTION_ENTRIES } else { 0 };
    MediaFaultConfig {
        wear_limit: 64,
        stuck_cells: stuck,
        correction_entries,
        ..MediaFaultConfig::with_seed(seed)
    }
}

struct SeedRow {
    seed: u64,
    fig4a_ms: f64,
    table4_ms: f64,
    fig4a_overhead: f64,
    table4_overhead: f64,
    /// Data lines the checksum patrol healed across this seed's
    /// data-integrity grid.
    data_healed: u64,
    /// Data frames the grid's zero-budget arm lost to poisoning.
    data_poisoned: u64,
}

/// Sum of persistent-scheme times across Fig. 4a rows (ms).
fn fig4a_persistent_ms(rows: &[experiments::Fig4aRow]) -> f64 {
    rows.iter().map(|r| r.persistent_ms).sum()
}

/// Sum of persistent-scheme times across Table IV cells (ms).
fn table4_persistent_ms(rows: &[experiments::Table4Row]) -> f64 {
    rows.iter().map(|r| r.persistent_ms).sum()
}

fn main() -> Result<()> {
    let harness = Harness::from_args();
    let (mut p4a, mut pt4, nseeds) = if harness.quick() {
        (Fig4aParams::quick(), Table4Params::quick(), 4u64)
    } else {
        (Fig4aParams::paper(), Table4Params::paper(), 16u64)
    };
    let run = harness.run();
    let base = run.faults.map_or(0xBAD_5EED, |f| f.seed);
    let jobs = run.jobs;
    let stuck = harness.stuck().unwrap_or(0);
    println!("SEEDSWEEP: Fig. 4a + Table IV under media faults, {nseeds} seeds from {base:#x}");
    println!(
        "({jobs} workers, {stuck} stuck cells/seed; overhead = persistent-scheme ms vs \
         fault-free baseline)"
    );
    rule(74);

    // Fault-free baseline first, on all workers; each seed below runs the
    // same grids serially inside its worker, under its own fault model.
    let clean = RunSettings { faults: None, ..run };
    (p4a.run, pt4.run) = (clean, clean);
    let base4a = fig4a_persistent_ms(&run_fig4a(&p4a)?);
    let baset4 = table4_persistent_ms(&run_table4(&pt4)?);

    let seeds: Vec<u64> = (0..nseeds).map(|i| base.wrapping_add(i)).collect();
    let rows: Vec<SeedRow> = parallel::par_map(jobs, seeds, |seed| -> Result<SeedRow> {
        let seeded = RunSettings { faults: Some(sweep_faults(seed, stuck)), jobs: 1, ..run };
        let fig4a_ms =
            fig4a_persistent_ms(&run_fig4a(&Fig4aParams { run: seeded, ..p4a.clone() })?);
        let table4_ms =
            table4_persistent_ms(&run_table4(&Table4Params { run: seeded, ..pt4.clone() })?);
        // The healed-vs-poisoned frontier: seed `base + i` corrupts
        // `1 + i mod 4` data lines, so across the sweep the budgeted arm's
        // heal count climbs while the zero-budget arm keeps losing exactly
        // one page — graceful degradation does not spread with corruption.
        let lines = 1 + (seed.wrapping_sub(base) % 4) as usize;
        let integ =
            run_data_integrity_sweep_strategy(seed, lines, seeded, SweepStrategy::SnapshotFork)?;
        Ok(SeedRow {
            seed,
            fig4a_ms,
            table4_ms,
            fig4a_overhead: fig4a_ms / base4a,
            table4_overhead: table4_ms / baset4,
            data_healed: integ.data_healed,
            data_poisoned: integ.data_poisoned,
        })
    })
    .into_iter()
    .collect::<Result<_>>()?;

    println!(
        "{:>18} | {:>10} | {:>8} | {:>10} | {:>8} | {:>6} | {:>6}",
        "seed", "fig4a ms", "ovh", "table4 ms", "ovh", "healed", "lost"
    );
    rule(74);
    println!(
        "{:>18} | {:>10} | {:>8} | {:>10} | {:>8} | {:>6} | {:>6}",
        "(fault-free)",
        ms(base4a),
        "1.000x",
        ms(baset4),
        "1.000x",
        "-",
        "-"
    );
    for r in &rows {
        println!(
            "{:>#18x} | {:>10} | {:>7.3}x | {:>10} | {:>7.3}x | {:>6} | {:>6}",
            r.seed,
            ms(r.fig4a_ms),
            r.fig4a_overhead,
            ms(r.table4_ms),
            r.table4_overhead,
            r.data_healed,
            r.data_poisoned
        );
    }
    rule(74);
    let worst4a = rows.iter().map(|r| r.fig4a_overhead).fold(f64::MIN, f64::max);
    let worstt4 = rows.iter().map(|r| r.table4_overhead).fold(f64::MIN, f64::max);
    println!("worst-case overhead over {nseeds} seeds: fig4a {worst4a:.3}x, table4 {worstt4:.3}x");
    println!("(retry-then-retire keeps the tail bounded: faults cost lines, not crashes)");
    let healed: u64 = rows.iter().map(|r| r.data_healed).sum();
    let poisoned: u64 = rows.iter().map(|r| r.data_poisoned).sum();
    println!(
        "data-integrity frontier: {healed} lines healed vs {poisoned} pages poisoned \
         across {nseeds} seeds"
    );

    let mut body = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "\n  {{\"seed\": {}, \"fig4a_ms\": {:.3}, \"fig4a_overhead\": {:.4}, \
             \"table4_ms\": {:.3}, \"table4_overhead\": {:.4}, \
             \"data_healed\": {}, \"data_poisoned\": {}}}",
            r.seed,
            r.fig4a_ms,
            r.fig4a_overhead,
            r.table4_ms,
            r.table4_overhead,
            r.data_healed,
            r.data_poisoned
        ));
    }
    body.push_str("\n]");
    harness.maybe_json_body(&body);
    if let Some(path) = harness.plot_path() {
        match std::fs::write(path, render_svg(&rows)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("plot write failed: {e}"),
        }
    }
    harness.finish()
}

/// Renders the per-seed overhead factors as a self-contained SVG line
/// chart: one polyline per artifact, a dashed 1.0x baseline, and the seed
/// index on the x axis. Pure string assembly — the plot opens in any
/// browser with no external tooling or fonts beyond `monospace`.
fn render_svg(rows: &[SeedRow]) -> String {
    const W: f64 = 640.0;
    const H: f64 = 360.0;
    const ML: f64 = 56.0; // left margin (y labels)
    const MR: f64 = 16.0;
    const MT: f64 = 34.0; // top margin (title)
    const MB: f64 = 40.0; // bottom margin (x labels)
    let ymax = rows
        .iter()
        .flat_map(|r| [r.fig4a_overhead, r.table4_overhead])
        .fold(1.0f64, f64::max)
        .mul_add(1.05, 0.0)
        .max(1.1);
    let n = rows.len().max(2);
    let x = |i: usize| ML + (W - ML - MR) * i as f64 / (n - 1) as f64;
    let y = |v: f64| MT + (H - MT - MB) * (1.0 - v / ymax);
    let series = |pick: fn(&SeedRow) -> f64| -> String {
        rows.iter().enumerate().map(|(i, r)| format!("{:.1},{:.1}", x(i), y(pick(r)))).fold(
            String::new(),
            |mut acc, p| {
                if !acc.is_empty() {
                    acc.push(' ');
                }
                acc.push_str(&p);
                acc
            },
        )
    };
    let mut s = String::new();
    s.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {W} {H}\" \
         font-family=\"monospace\" font-size=\"11\">\n<rect width=\"{W}\" height=\"{H}\" \
         fill=\"white\"/>\n<text x=\"{ML}\" y=\"20\" font-size=\"13\">seedsweep: \
         persistent-scheme overhead vs fault-free baseline</text>\n"
    ));
    // y gridlines at even fractions of the range, labelled in overhead x.
    for t in 0..=4 {
        let v = ymax * f64::from(t) / 4.0;
        let yy = y(v);
        s.push_str(&format!(
            "<line x1=\"{ML}\" y1=\"{yy:.1}\" x2=\"{:.1}\" y2=\"{yy:.1}\" stroke=\"#ddd\"/>\n\
             <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{v:.2}x</text>\n",
            W - MR,
            ML - 6.0,
            yy + 4.0
        ));
    }
    // The 1.0x baseline: everything above it is fault-model cost.
    s.push_str(&format!(
        "<line x1=\"{ML}\" y1=\"{0:.1}\" x2=\"{1:.1}\" y2=\"{0:.1}\" stroke=\"#888\" \
         stroke-dasharray=\"4 3\"/>\n",
        y(1.0),
        W - MR
    ));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{:#x}</text>\n",
            x(i),
            H - MB + 16.0,
            r.seed & 0xff
        ));
    }
    for (pick, color, label, ly) in [
        (fig4a_pick as fn(&SeedRow) -> f64, "#1f77b4", "fig4a", 0),
        (table4_pick as fn(&SeedRow) -> f64, "#d62728", "table4", 1),
        (integrity_pick as fn(&SeedRow) -> f64, "#2ca02c", "integrity", 2),
    ] {
        s.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>\n",
            series(pick)
        ));
        for (i, r) in rows.iter().enumerate() {
            s.push_str(&format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.5\" fill=\"{color}\"/>\n",
                x(i),
                y(pick(r))
            ));
        }
        let yy = MT + 14.0 * f64::from(ly);
        s.push_str(&format!(
            "<line x1=\"{0:.1}\" y1=\"{yy:.1}\" x2=\"{1:.1}\" y2=\"{yy:.1}\" stroke=\"{color}\" \
             stroke-width=\"1.5\"/>\n<text x=\"{2:.1}\" y=\"{3:.1}\">{label}</text>\n",
            W - MR - 110.0,
            W - MR - 90.0,
            W - MR - 84.0,
            yy + 4.0
        ));
    }
    s.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">seed (low byte)</text>\n</svg>\n",
        (ML + W - MR) / 2.0,
        H - 8.0
    ));
    s
}

fn fig4a_pick(r: &SeedRow) -> f64 {
    r.fig4a_overhead
}

fn table4_pick(r: &SeedRow) -> f64 {
    r.table4_overhead
}

/// The healed-vs-poisoned frontier as a survival fraction: of all data
/// lines the grid corrupted, the share the patrol restored rather than
/// had to give up on (1.0 = every line healed).
fn integrity_pick(r: &SeedRow) -> f64 {
    let total = r.data_healed + r.data_poisoned;
    if total == 0 {
        return 1.0;
    }
    r.data_healed as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svg_is_self_contained_and_covers_every_row() {
        let rows = vec![
            SeedRow {
                seed: 0xA0,
                fig4a_ms: 10.0,
                table4_ms: 20.0,
                fig4a_overhead: 1.1,
                table4_overhead: 1.3,
                data_healed: 1,
                data_poisoned: 1,
            },
            SeedRow {
                seed: 0xA1,
                fig4a_ms: 11.0,
                table4_ms: 21.0,
                fig4a_overhead: 1.2,
                table4_overhead: 1.25,
                data_healed: 4,
                data_poisoned: 1,
            },
        ];
        let svg = render_svg(&rows);
        assert!(svg.starts_with("<svg "), "{svg}");
        assert!(svg.trim_end().ends_with("</svg>"), "{svg}");
        assert_eq!(svg.matches("<polyline").count(), 3, "one line per artifact");
        assert_eq!(svg.matches("<circle").count(), 6, "one marker per row per artifact");
        assert!(svg.contains("fig4a") && svg.contains("table4") && svg.contains("integrity"));
        assert!(!svg.contains("href"), "self-contained: no external references");
    }
}
