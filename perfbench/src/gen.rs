//! Seeded request generation.
//!
//! Every workload draws its inputs from [`Rng`] streams derived from the
//! `--seed` argument, so one seed always yields the same lines. Each
//! world owns its own stream ([`ChurnGen`]), which keeps a world's lines
//! independent of how requests to different worlds interleave.

/// SplitMix64: small, fast, and good enough to pick requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Persons a served world hires from. With the refused-fire names this
/// keeps every world below the monitor cache's per-instance capacity,
/// so `fire` stays on the monitored path.
pub const POOL: u16 = 48;
/// Names that are never hired; firing one is refused.
pub const NEVER_HIRED: u16 = 4;
/// Share of writes that are refused fires, in percent.
pub const REFUSED_PCT: u64 = 4;

/// The attribute a read observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attr {
    Employees,
    EstDate,
}

impl Attr {
    pub fn name(self) -> &'static str {
        match self {
            Attr::Employees => "employees",
            Attr::EstDate => "est_date",
        }
    }
}

/// One request to a world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Open,
    /// `establishment` with a seeded date `(year, month, day)`.
    Birth(u16, u8, u8),
    Hire(u16),
    Fire(u16),
    /// Fire of a person the world never hired: refused by `fire`'s
    /// permission.
    FireNever(u16),
    Read(Attr),
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Birth(..) | Op::Hire(_) | Op::Fire(_) | Op::FireNever(_)
        )
    }

    /// The label this request's engine step is timed under.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Birth(..) => "birth",
            Op::Hire(_) => "hire",
            Op::Fire(_) => "fire",
            Op::FireNever(_) => "fire_refused",
            Op::Read(_) => "show",
        }
    }
}

pub fn world_id(i: usize) -> String {
    format!("w{i:03}")
}

pub fn dept_id(world: &str) -> String {
    format!("|DEPT|(\"{world}\")")
}

/// The animation-script line of a write, or the `show` line of a read.
pub fn script_line(world: &str, op: &Op) -> String {
    let dept = dept_id(world);
    match op {
        Op::Open => String::new(),
        Op::Birth(y, m, d) => {
            format!("birth DEPT (\"{world}\") establishment (date({y},{m},{d}))")
        }
        Op::Hire(p) => format!("exec {dept} hire (|PERSON|(\"p{p:02}\"))"),
        Op::Fire(p) => format!("exec {dept} fire (|PERSON|(\"p{p:02}\"))"),
        Op::FireNever(p) => format!("exec {dept} fire (|PERSON|(\"x{p}\"))"),
        Op::Read(attr) => format!("show {dept} {}", attr.name()),
    }
}

/// A world's seeded hire/fire churn over a [`POOL`]-person pool.
#[derive(Debug, Clone)]
pub struct ChurnGen {
    rng: Rng,
    hired: Vec<u16>,
    hired_mask: u64,
}

impl ChurnGen {
    pub fn new(seed: u64, world: usize) -> ChurnGen {
        ChurnGen {
            rng: Rng::derive(seed, world as u64 + 1),
            hired: Vec::new(),
            hired_mask: 0,
        }
    }

    pub fn birth(&mut self) -> Op {
        let y = 1980 + self.rng.below(20) as u16;
        let m = 1 + self.rng.below(12) as u8;
        let d = 1 + self.rng.below(28) as u8;
        Op::Birth(y, m, d)
    }

    /// The next request: with `read_pct` percent probability a read of
    /// one of the two attributes, else [`ChurnGen::next_write`].
    pub fn next_op(&mut self, read_pct: u64) -> Op {
        if self.rng.below(100) < read_pct {
            return Op::Read(if self.rng.below(2) == 0 {
                Attr::Employees
            } else {
                Attr::EstDate
            });
        }
        self.next_write()
    }

    /// The next write: a hire from the pool, a permitted fire of someone
    /// hired before, or (rarely) a refused fire of a never-hired name.
    pub fn next_write(&mut self) -> Op {
        let roll = self.rng.below(100);
        if roll < REFUSED_PCT {
            return Op::FireNever(self.rng.below(u64::from(NEVER_HIRED)) as u16);
        }
        if self.hired.is_empty() || roll < 52 {
            let p = self.rng.below(u64::from(POOL)) as u16;
            if self.hired_mask & (1 << p) == 0 {
                self.hired_mask |= 1 << p;
                self.hired.push(p);
            }
            return Op::Hire(p);
        }
        Op::Fire(self.hired[self.rng.below(self.hired.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64) -> Vec<String> {
        let mut out = Vec::new();
        for w in 0..4 {
            let world = world_id(w);
            let mut gen = ChurnGen::new(seed, w);
            out.push(script_line(&world, &gen.birth()));
            for _ in 0..500 {
                out.push(script_line(&world, &gen.next_write()));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_lines() {
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
    }

    #[test]
    fn churn_stays_in_pool_and_mixes_outcomes() {
        let mut gen = ChurnGen::new(3, 0);
        let ops: Vec<Op> = (0..5000).map(|_| gen.next_write()).collect();
        assert!(ops.iter().any(|o| matches!(o, Op::FireNever(_))));
        assert!(ops.iter().any(|o| matches!(o, Op::Fire(_))));
        assert!(ops.iter().all(|o| match o {
            Op::Hire(p) | Op::Fire(p) => *p < POOL,
            Op::FireNever(p) => *p < NEVER_HIRED,
            _ => false,
        }));
    }
}
