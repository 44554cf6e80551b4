//! The compiled evaluator against `rtl::BitVec`, and the lazy-settle
//! contract.
//!
//! `BitVec`'s own methods are the reference semantics of every operator.
//! Random `SplitMix64`-seeded DAGs over every `rtl` operator are built
//! together with the same expressions computed with `BitVec`, and every
//! peeked signal must agree under several input assignments.
//!
//! The settle contract: writes (`poke`, `set_register`, `reset`, `step`)
//! only mark the logic stale, and no interleaving of them with peeks may
//! leave a peek stale. After every peek in a random interleaving, every
//! signal equals what a freshly built simulator peeks for the same
//! register values and inputs.

use rtl::{BinaryOp, BitVec, Netlist, Node, SignalId, SplitMix64, UnaryOp};
use sim::Simulator;

/// Input assignments each random DAG is evaluated under.
const RUNS: usize = 4;

const UNARY: [UnaryOp; 5] = [
    UnaryOp::Not,
    UnaryOp::Neg,
    UnaryOp::ReduceOr,
    UnaryOp::ReduceAnd,
    UnaryOp::ReduceXor,
];

const BINARY: [BinaryOp; 12] = [
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Ult,
    BinaryOp::Ule,
    BinaryOp::Slt,
    BinaryOp::Shl,
    BinaryOp::Shr,
];

/// One kind of combinational node.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Unary(UnaryOp),
    Binary(BinaryOp),
    Mux,
    Slice,
    Concat,
}

fn every_shape() -> Vec<Shape> {
    let mut shapes: Vec<Shape> = UNARY.into_iter().map(Shape::Unary).collect();
    shapes.extend(BINARY.into_iter().map(Shape::Binary));
    shapes.extend([Shape::Mux, Shape::Slice, Shape::Concat]);
    shapes
}

type Build1 = fn(&mut Netlist, SignalId) -> SignalId;
type Build2 = fn(&mut Netlist, SignalId, SignalId) -> SignalId;

/// The netlist builder of a unary operator and its `BitVec` reference.
fn unary(op: UnaryOp) -> (Build1, fn(&BitVec) -> BitVec) {
    match op {
        UnaryOp::Not => (Netlist::not, BitVec::not),
        UnaryOp::Neg => (Netlist::neg, BitVec::neg),
        UnaryOp::ReduceOr => (Netlist::reduce_or, BitVec::reduce_or),
        UnaryOp::ReduceAnd => (Netlist::reduce_and, BitVec::reduce_and),
        UnaryOp::ReduceXor => (Netlist::reduce_xor, BitVec::reduce_xor),
    }
}

/// The netlist builder of a binary operator and its `BitVec` reference.
fn binary(op: BinaryOp) -> (Build2, fn(&BitVec, &BitVec) -> BitVec) {
    match op {
        BinaryOp::And => (Netlist::and, BitVec::and),
        BinaryOp::Or => (Netlist::or, BitVec::or),
        BinaryOp::Xor => (Netlist::xor, BitVec::xor),
        BinaryOp::Add => (Netlist::add, BitVec::add),
        BinaryOp::Sub => (Netlist::sub, BitVec::sub),
        BinaryOp::Eq => (Netlist::eq, BitVec::eq_bit),
        BinaryOp::Ne => (Netlist::ne, |a, b| a.eq_bit(b).not()),
        BinaryOp::Ult => (Netlist::ult, BitVec::ult),
        BinaryOp::Ule => (Netlist::ule, BitVec::ule),
        BinaryOp::Slt => (Netlist::slt, BitVec::slt),
        BinaryOp::Shl => (Netlist::shl, |a, b| a.shl(shift_amount(b))),
        BinaryOp::Shr => (Netlist::shr, |a, b| a.shr(shift_amount(b))),
    }
}

/// A variable shift amount as `BitVec::shl`/`shr` take it; those clear
/// every bit for any amount at or above the width.
fn shift_amount(amount: &BitVec) -> u32 {
    u32::try_from(amount.as_u64()).unwrap_or(u32::MAX)
}

/// A `width`-bit value biased towards the edges: zero, all ones, the sign
/// bit alone, the largest positive value, small values.
fn draw(rng: &mut SplitMix64, width: u32) -> u64 {
    let sign = 1u64 << (width - 1);
    let raw = match rng.gen_range(0..6) {
        0 => 0,
        1 => u64::MAX,
        2 => sign,
        3 => sign - 1,
        4 => rng.gen_range(0..4) as u64,
        _ => rng.next_u64(),
    };
    BitVec::new(raw, width).as_u64()
}

/// A random netlist under construction, with the reference value of every
/// signal under each of the [`RUNS`] input assignments.
struct Dag {
    n: Netlist,
    rng: SplitMix64,
    /// The widths operators draw from: always 1 and 64, plus two more.
    widths: [u32; 4],
    /// Reference values, by signal index.
    expected: Vec<[BitVec; RUNS]>,
    /// Existing signals by width: the operand pools.
    by_width: Vec<Vec<SignalId>>,
    /// `(shifted width, amount)` of every shift under every assignment.
    shifts: Vec<(u32, u64)>,
}

impl Dag {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let widths = [
            1,
            64,
            rng.gen_range(2..=63) as u32,
            rng.gen_range(1..=64) as u32,
        ];
        Self {
            n: Netlist::new(format!("dag{seed}")),
            rng,
            widths,
            expected: Vec::new(),
            by_width: vec![Vec::new(); 65],
            shifts: Vec::new(),
        }
    }

    fn width(&mut self) -> u32 {
        self.widths[self.rng.gen_range(0..4) as usize]
    }

    fn draw(&mut self, width: u32) -> u64 {
        draw(&mut self.rng, width)
    }

    fn push(&mut self, id: SignalId, values: [BitVec; RUNS]) -> SignalId {
        assert_eq!(id.index(), self.expected.len());
        self.expected.push(values);
        self.by_width[self.n.width(id) as usize].push(id);
        id
    }

    fn input_with(&mut self, width: u32, values: [u64; RUNS]) -> SignalId {
        let id = self.n.input(format!("i{}", self.n.len()), width);
        self.push(id, values.map(|v| BitVec::new(v, width)))
    }

    fn input(&mut self, width: u32) -> SignalId {
        let values = std::array::from_fn(|_| self.draw(width));
        self.input_with(width, values)
    }

    fn leaf(&mut self, width: u32) -> SignalId {
        if self.rng.gen_bool() {
            return self.input(width);
        }
        let value = BitVec::new(self.draw(width), width);
        let id = self.n.constant(value);
        self.push(id, [value; RUNS])
    }

    /// An existing signal of `width` three times in four, else a new leaf.
    fn operand(&mut self, width: u32) -> SignalId {
        let pool = &self.by_width[width as usize];
        if !pool.is_empty() && self.rng.gen_range(0..4) != 0 {
            pool[self.rng.gen_u64_below(pool.len() as u64) as usize]
        } else {
            self.leaf(width)
        }
    }

    /// A fresh shift-amount input for a `width`-bit operand, its values
    /// below, at and above the width, past 64 and arbitrary.
    fn amount(&mut self, width: u32) -> SignalId {
        let amount_width = self.rng.gen_range(1..=64) as u32;
        let values = std::array::from_fn(|_| match self.rng.gen_range(0..5) {
            0 => self.rng.gen_u64_below(u64::from(width)),
            1 => u64::from(width),
            2 => u64::from(width) + self.rng.gen_range(1..=64) as u64,
            3 => 64 + self.rng.gen_range(0..200) as u64,
            _ => self.rng.next_u64(),
        });
        let id = self.input_with(amount_width, values);
        let shifts = self.expected[id.index()].map(|v| (width, v.as_u64()));
        self.shifts.extend(shifts);
        id
    }

    fn values(&self, id: SignalId) -> [BitVec; RUNS] {
        self.expected[id.index()]
    }

    /// Adds one node of `shape` over operands of `width` where the shape
    /// has an operand width to choose.
    fn grow(&mut self, shape: Shape, width: u32) -> SignalId {
        match shape {
            Shape::Unary(op) => {
                let (build, reference) = unary(op);
                let a = self.operand(width);
                let (va, id) = (self.values(a), build(&mut self.n, a));
                self.push(id, std::array::from_fn(|k| reference(&va[k])))
            }
            Shape::Binary(op) => {
                let (build, reference) = binary(op);
                let a = self.operand(width);
                let b = match op {
                    BinaryOp::Shl | BinaryOp::Shr => self.amount(width),
                    _ => self.operand(width),
                };
                let (va, vb) = (self.values(a), self.values(b));
                let id = build(&mut self.n, a, b);
                self.push(id, std::array::from_fn(|k| reference(&va[k], &vb[k])))
            }
            Shape::Mux => {
                let cond = self.operand(1);
                let (then_, else_) = (self.operand(width), self.operand(width));
                let (vc, vt, ve) = (self.values(cond), self.values(then_), self.values(else_));
                let id = self.n.mux(cond, then_, else_);
                self.push(
                    id,
                    std::array::from_fn(|k| if vc[k].is_true() { vt[k] } else { ve[k] }),
                )
            }
            Shape::Slice => {
                let a = self.operand(width);
                let hi = self.rng.gen_range(0..i64::from(width)) as u32;
                let lo = self.rng.gen_range(0..=i64::from(hi)) as u32;
                let va = self.values(a);
                let id = self.n.slice(a, hi, lo);
                self.push(id, va.map(|v| v.slice(hi, lo)))
            }
            Shape::Concat => {
                let hi_width = width.min(63);
                let lo_width = self.rng.gen_range(1..=i64::from(64 - hi_width)) as u32;
                let (hi, lo) = (self.operand(hi_width), self.operand(lo_width));
                let (vh, vl) = (self.values(hi), self.values(lo));
                let id = self.n.concat(hi, lo);
                self.push(id, std::array::from_fn(|k| vh[k].concat(&vl[k])))
            }
        }
    }

    /// Every shape once, in a random order, at random widths.
    fn grow_every_shape(&mut self) {
        let mut shapes = every_shape();
        for i in (1..shapes.len()).rev() {
            let j = self.rng.gen_u64_below(i as u64 + 1) as usize;
            shapes.swap(i, j);
        }
        for shape in shapes {
            let width = self.width();
            self.grow(shape, width);
        }
    }
}

#[test]
fn every_operator_matches_bitvec_on_random_dags() {
    let (mut below, mut at_or_above, mut past_64_at_64) = (0, 0, 0);
    for seed in 0..200 {
        let mut dag = Dag::new(seed);
        dag.grow(Shape::Binary(BinaryOp::Slt), 1);
        dag.grow(Shape::Binary(BinaryOp::Slt), 64);
        dag.grow_every_shape();
        dag.grow_every_shape();

        let mut sim = Simulator::new(dag.n.clone());
        for run in 0..RUNS {
            for &input in dag.n.inputs() {
                sim.poke(input, dag.expected[input.index()][run].as_u64());
            }
            for id in dag.n.signals() {
                let node = dag.n.node(id);
                let operands: Vec<BitVec> = node
                    .operands()
                    .iter()
                    .map(|o| dag.expected[o.index()][run])
                    .collect();
                assert_eq!(
                    sim.peek(id),
                    dag.expected[id.index()][run],
                    "seed {seed}, run {run}: {node:?} over {operands:?}"
                );
            }
        }
        for &(width, amount) in &dag.shifts {
            if amount < u64::from(width) {
                below += 1;
            } else {
                at_or_above += 1;
                past_64_at_64 += usize::from(width == 64 && amount >= 64);
            }
        }
    }
    assert!(below > 0 && at_or_above > 0 && past_64_at_64 > 0);
}

#[test]
fn evaluates_arithmetic_dag() {
    let mut n = Netlist::new("t");
    let a = n.input("a", 8);
    let b = n.input("b", 8);
    let sum = n.add(a, b);
    let is_big = n.ult(b, sum);

    let mut sim = Simulator::new(n);
    sim.poke(a, 10);
    sim.poke(b, 20);
    assert_eq!(sim.peek(sum).as_u64(), 30);
    assert!(sim.peek(is_big).is_true());
}

#[test]
fn variable_shift_amounts_are_clamped() {
    let mut n = Netlist::new("t");
    let a = n.input("a", 8);
    let amount = n.input("amount", 4);
    let shifted = n.shl(a, amount);

    let mut sim = Simulator::new(n);
    sim.poke(a, 0xff);
    sim.poke(amount, 12);
    assert_eq!(sim.peek(shifted).as_u64(), 0);
}

/// What the simulator under test should hold, kept independently of it.
struct State {
    registers: Vec<u64>,
    inputs: Vec<u64>,
    cycle: u64,
}

impl State {
    fn at_reset(n: &Netlist) -> Self {
        Self {
            registers: n
                .registers()
                .iter()
                .map(|r| r.init.map_or(0, |v| v.as_u64()))
                .collect(),
            inputs: vec![0; n.inputs().len()],
            cycle: 0,
        }
    }

    /// A freshly built simulator holding this state.
    fn fresh(&self, n: &Netlist) -> Simulator {
        let mut sim = Simulator::new(n.clone());
        for (register, &value) in n.register_ids().zip(&self.registers) {
            sim.set_register(register, value);
        }
        for (&input, &value) in n.inputs().iter().zip(&self.inputs) {
            sim.poke(input, value);
        }
        sim
    }
}

/// A random sequential netlist: two inputs, three to six registers (some
/// with a reset value, some without) and every shape of logic between
/// them; next-state functions are drawn from the operand pools, so a
/// register may load another register, an input or a constant directly.
fn sequential(seed: u64) -> Netlist {
    let mut dag = Dag::new(seed);
    for _ in 0..2 {
        let width = dag.width();
        dag.input(width);
    }
    let mut registers = Vec::new();
    for r in 0..dag.rng.gen_range(3..=6) {
        let width = dag.width();
        let name = format!("r{r}");
        let (handle, value) = if dag.rng.gen_bool() {
            let init = BitVec::new(dag.draw(width), width);
            (dag.n.register_init(name, width, init), init)
        } else {
            (dag.n.register(name, width), BitVec::zero(width))
        };
        dag.push(handle.value(), [value; RUNS]);
        registers.push(handle);
    }
    dag.grow_every_shape();
    dag.grow_every_shape();
    for handle in registers {
        let next = dag.operand(dag.n.width(handle.value()));
        dag.n.set_next(handle, next);
    }
    dag.n
        .validate()
        .expect("random sequential netlist is well formed");
    dag.n
}

#[test]
fn peeks_after_any_interleaving_match_a_fresh_simulator() {
    let (mut leaf_peeks, mut logic_peeks) = (0, 0);
    for seed in 0..60 {
        let n = sequential(seed);
        let mut rng = SplitMix64::new(!seed);
        let (leaves, logic): (Vec<SignalId>, Vec<SignalId>) = n.signals().partition(|&s| {
            matches!(
                n.node(s),
                Node::Input { .. } | Node::Register { .. } | Node::Const(_)
            )
        });
        let mut sim = Simulator::new(n.clone());
        let mut state = State::at_reset(&n);
        for _ in 0..150 {
            match rng.gen_range(0..16) {
                0..=3 => {
                    let i = rng.gen_u64_below(n.inputs().len() as u64) as usize;
                    let value = draw(&mut rng, n.width(n.inputs()[i]));
                    sim.poke(n.inputs()[i], value);
                    state.inputs[i] = value;
                }
                4..=8 => {
                    let leaf = rng.gen_bool();
                    let pool = if leaf { &leaves } else { &logic };
                    let signal = pool[rng.gen_u64_below(pool.len() as u64) as usize];
                    let mut reference = state.fresh(&n);
                    assert_eq!(
                        sim.peek(signal),
                        reference.peek(signal),
                        "seed {seed}: peek of {:?}",
                        n.node(signal)
                    );
                    if leaf {
                        leaf_peeks += 1;
                    } else {
                        logic_peeks += 1;
                    }
                    // Check everything on a copy, so that the copy settles
                    // and the simulator under test keeps its own state.
                    let mut probe = sim.clone();
                    for s in n.signals() {
                        assert_eq!(probe.peek(s), reference.peek(s), "seed {seed}: {s:?}");
                    }
                }
                9..=12 => {
                    let mut reference = state.fresh(&n);
                    state.registers = n
                        .registers()
                        .iter()
                        .map(|r| reference.peek(r.next.unwrap()).as_u64())
                        .collect();
                    state.cycle += 1;
                    sim.step();
                }
                13 | 14 => {
                    let r = rng.gen_u64_below(n.register_count() as u64) as usize;
                    let value = draw(&mut rng, n.registers()[r].width);
                    sim.set_register(rtl::RegisterId::from_index(r), value);
                    state.registers[r] = value;
                }
                _ => {
                    sim.reset();
                    state.registers = State::at_reset(&n).registers;
                    state.cycle = 0;
                }
            }
            let registers: Vec<u64> = sim.register_snapshot().iter().map(BitVec::as_u64).collect();
            assert_eq!(registers, state.registers, "seed {seed}");
            assert_eq!(sim.cycle(), state.cycle, "seed {seed}");
        }
    }
    assert!(leaf_peeks > 0 && logic_peeks > 0);
}

#[test]
#[should_panic(expected = "not a primary input")]
fn poking_a_register_panics() {
    let mut n = Netlist::new("t");
    let r = n.register_init("r", 4, BitVec::zero(4));
    n.set_next(r, r.value());
    let mut sim = Simulator::new(n);
    sim.poke(r.value(), 1);
}
