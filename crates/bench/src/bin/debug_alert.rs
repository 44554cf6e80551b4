//! Diagnostic helper: reproduce a UPEC counterexample and dump the values of
//! every miter register pair and the key control signals frame by frame.
//! Used while tuning the side constraints; kept because it is genuinely
//! useful when extending the SoC.
//!
//! ```text
//! cargo run --release -p bench --bin debug_alert [variant] [window]
//! ```

use bmc::{UnrollOptions, Unrolling};
use sat::SatResult;
use upec::{scenarios, StateClass};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Accept either a registry scenario id or the legacy variant shorthand.
    let id = match args.get(1).map(String::as_str) {
        Some("orc") | None => "orc",
        Some("meltdown") => "meltdown",
        Some("pmp") => "pmp-lock",
        Some("secure") => "secure-cached",
        Some(other) => other,
    };
    let scenario = scenarios::by_id(id).unwrap_or_else(|| {
        eprintln!("unknown scenario `{id}`; registered ids:");
        for s in scenarios::registry() {
            eprintln!("  {:<18} {}", s.name, s.title);
        }
        std::process::exit(1);
    });
    let variant = scenario.variant;
    let window: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);

    let model = scenario.build_model();
    // Compiling the full netlist (rather than the model's proof cone) keeps
    // every control signal below in the schedule.
    let mut unrolling = Unrolling::with_frame0_aliases(
        model.netlist(),
        UnrollOptions::default(),
        &model.frame0_aliases(),
    );
    unrolling.extend_to(window);
    for c in model.initial_constraints() {
        unrolling.assume_signal_true(0, c.signal).unwrap();
    }
    for c in model.window_constraints() {
        for f in 0..=window {
            unrolling.assume_signal_true(f, c.signal).unwrap();
        }
    }
    // Ask for an architectural difference at the final frame.
    let arch_lits: Vec<_> = model
        .pairs_of_class(StateClass::Architectural)
        .map(|p| unrolling.bit_lit(window, p.equal).unwrap())
        .collect();
    unrolling.add_clause(arch_lits.iter().map(|&l| !l));

    let (soc1, soc2) = (model.soc1(), model.soc2());
    let controls = [
        ("pc", soc1.pc, soc2.pc),
        ("mode", soc1.mode, soc2.mode),
        ("global_stall", soc1.global_stall, soc2.global_stall),
        ("flush(wb)", soc1.flush, soc2.flush),
        ("trap_taken", soc1.trap_taken, soc2.trap_taken),
        ("imem_instr", soc1.imem_instr, soc2.imem_instr),
        ("mem_rdata", soc1.mem_rdata, soc2.mem_rdata),
        ("mem_req_valid", soc1.mem_req_valid, soc2.mem_req_valid),
        ("mem_req_addr", soc1.mem_req_addr, soc2.mem_req_addr),
        (
            "secret_line_present",
            soc1.secret_line_present,
            soc2.secret_line_present,
        ),
        ("ex_mem_blocked", soc1.ex_mem_blocked, soc2.ex_mem_blocked),
        ("mem_wb_blocked", soc1.mem_wb_blocked, soc2.mem_wb_blocked),
    ];
    // The encoding only gives literals to signals a query reaches, so
    // request every dumped signal in every frame before solving.
    let pairs = model.pairs().iter().map(|p| (p.signal1, p.signal2));
    let dumped: Vec<_> = pairs
        .chain(controls.iter().map(|&(_, s1, s2)| (s1, s2)))
        .collect();
    for frame in 0..=window {
        for &(s1, s2) in &dumped {
            unrolling.lits(frame, s1).unwrap();
            unrolling.lits(frame, s2).unwrap();
        }
    }

    match unrolling.solve(&[]) {
        SatResult::Unsat => println!("no architectural difference reachable at window {window}"),
        SatResult::Unknown => println!("unknown"),
        SatResult::Sat(m) => {
            println!("L-alert counterexample at window {window} ({variant:?}):\n");
            let value = |frame, signal| unrolling.value_in_model(&m, frame, signal).unwrap();
            for frame in 0..=window {
                println!("--- frame {frame} ---");
                for pair in model.pairs() {
                    let (v1, v2) = (value(frame, pair.signal1), value(frame, pair.signal2));
                    if v1 != v2 {
                        println!("  DIFF {:<28} {v1} vs {v2}  [{:?}]", pair.name, pair.class);
                    }
                }
                for &(label, s1, s2) in &controls {
                    println!("  {label:<28} {} | {}", value(frame, s1), value(frame, s2));
                }
            }
        }
    }
}
