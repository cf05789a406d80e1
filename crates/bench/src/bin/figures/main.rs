//! `figures [<id>...]`: the named figures and tables of the paper in the
//! given order, or all of them in the order below, each after an
//! `== <id>` line (`tests/figures.rs` holds the output to its pin).

/// Declares each figure's module and lists it under its module name,
/// in the pinned order.
macro_rules! figures {
    ($($id:ident),*) => {
        $(mod $id;)*
        const FIGURES: &[(&str, fn())] = &[$((stringify!($id), $id::main)),*];
    };
}

figures!(
    ablation,
    fig01_cmr,
    fig04_fu_busy,
    fig05_hybrid,
    fig07_accuracy,
    fig11_area,
    fig12_riscv_smm,
    fig13_cnn,
    fig14_llm,
    fig15_stalls,
    fig16_energy,
    fig17_heatmap,
    fig18_mmla,
    table1,
    table4_sota
);

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<(&str, fn())> =
        if ids.is_empty() { FIGURES.to_vec() } else { ids.iter().map(|id| find(id)).collect() };
    for (id, print) in selected {
        println!("== {id}");
        print();
    }
}

/// The figure named `id`; an unknown id exits with the valid ones
/// listed, before any figure has printed.
fn find(id: &str) -> (&'static str, fn()) {
    FIGURES.iter().copied().find(|(name, _)| *name == id).unwrap_or_else(|| {
        let valid: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("figures: unknown id `{id}`; valid ids: {}", valid.join(" "));
        std::process::exit(2)
    })
}
