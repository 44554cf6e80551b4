//! Diagnostic helper: reproduce a UPEC L-alert and dump the values of every
//! differing miter register pair and the key control signals frame by
//! frame. Used while tuning the side constraints; kept because it is
//! genuinely useful when extending the SoC.
//!
//! The query is the scenario's miter at one window under the architectural
//! commitment, posed on a proof-logging session. The dump replays the
//! query's checked witness certificate on the simulator, which computes
//! every signal. Exits 0 on an L-alert whose witness certificate checks,
//! 1 otherwise (the window is proven, or the witness is rejected), and 2 on
//! a malformed command line (an unknown scenario, a window that does not
//! parse, or a third argument), which is rejected before any model is
//! built.
//!
//! ```text
//! cargo run --release -p bench --bin debug_alert [scenario] [window]
//! ```

use bench::{scenario_or_exit, usage_error};
use bmc::UnrollOptions;
use upec::{architectural_commitment, IncrementalSession, VerdictCertificate};

const USAGE: &str = "debug_alert [scenario] [window]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        usage_error(USAGE, &format!("unexpected argument `{}`", args[2]));
    }
    // Accept either a registry scenario id or the legacy variant shorthand.
    let id = match args.first().map(String::as_str) {
        Some("orc") | None => "orc",
        Some("meltdown") => "meltdown",
        Some("pmp") => "pmp-lock",
        Some("secure") => "secure-cached",
        Some(other) => other,
    };
    let window: usize = match args.get(1) {
        None => 2,
        Some(w) => w.parse().unwrap_or_else(|_| {
            usage_error(USAGE, &format!("the window is a cycle count, not `{w}`"))
        }),
    };
    let scenario = scenario_or_exit(id, USAGE);

    let model = scenario.build_model();
    let mut session =
        IncrementalSession::with_options(&model, UnrollOptions::default().with_proof_log());
    let (_, certificate) = session
        .try_check_bound(window, &architectural_commitment(&model))
        .expect("the architectural commitment is well formed");
    // The session is unbudgeted, so the query decides: without a witness,
    // the window is proven.
    let Some(VerdictCertificate::Witness(witness)) = certificate else {
        println!("no architectural difference reachable at window {window}");
        std::process::exit(1);
    };
    let trace = witness.trace.clone();
    if let Err(e) = VerdictCertificate::Witness(witness).check(&model) {
        eprintln!("witness certificate rejected: {e}");
        std::process::exit(1);
    }

    println!(
        "L-alert counterexample at window {window} ({:?}):\n",
        scenario.config.variant()
    );
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
    trace
        .replay(model.netlist().clone(), |frame, sim| {
            println!("--- frame {frame} ---");
            for pair in model.pairs() {
                let (v1, v2) = (sim.peek(pair.signal1), sim.peek(pair.signal2));
                if v1 != v2 {
                    println!("  DIFF {:<28} {v1} vs {v2}  [{:?}]", pair.name, pair.class);
                }
            }
            for &(label, s1, s2) in &controls {
                println!("  {label:<28} {} | {}", sim.peek(s1), sim.peek(s2));
            }
        })
        .expect("a checked witness replays");
}
