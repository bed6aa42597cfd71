//! Run outcomes and the output format: human-readable lines first, then
//! one JSON object as the last stdout line.

use std::time::Duration;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Request counts for one phase of a workload.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: &'static str,
    /// Requests, each counted once however often it was sent.
    pub attempted: u64,
    /// Requests whose final answer was OK and correct.
    pub ok: u64,
    /// Requests answered OK and correct at their first send.
    pub first_ok: u64,
    /// Requests shed by admission control (`Overloaded`) at least once,
    /// and sent again (see `retry`).
    pub shed: u64,
    /// Sends after the first, over all shed requests.
    pub resends: u64,
    /// Requests whose final answer was an error, a non-zero return code,
    /// `Expired`, or still `Overloaded` after `retry::GIVE_UP`.
    pub failed: u64,
    /// Completed without error but with output that did not match the
    /// benchmark's own recomputation.
    pub wrong: u64,
}

impl Phase {
    pub fn new(name: &'static str) -> Phase {
        Phase {
            name,
            ..Phase::default()
        }
    }

    /// Requests that did not end with a correct answer.
    pub fn not_ok(&self) -> u64 {
        self.failed + self.wrong
    }

    /// Count one request whose final answer came after `sends` sends;
    /// `correct` checks an OK answer's output. True when OK and correct.
    pub fn count(&mut self, sends: u32, answered_ok: bool, correct: impl FnOnce() -> bool) -> bool {
        self.attempted += 1;
        if sends > 1 {
            self.shed += 1;
            self.resends += u64::from(sends - 1);
        }
        if !answered_ok {
            self.failed += 1;
            return false;
        }
        if !correct() {
            self.wrong += 1;
            return false;
        }
        self.ok += 1;
        if sends == 1 {
            self.first_ok += 1;
        }
        true
    }

    /// Share of requests answered OK and correct at their first send: one
    /// minus the share that were shed, failed or wrong.
    pub fn ok_frac(&self) -> f64 {
        self.first_ok as f64 / self.attempted.max(1) as f64
    }

    pub fn add(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.first_ok += other.first_ok;
        self.shed += other.shed;
        self.resends += other.resends;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub phases: Vec<Phase>,
    /// Workload-level checks that are not per request (e.g. training
    /// accuracy); each failed check makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Time per unit of work (serve: one phase-B request; train: one
    /// epoch; scale: one burst) and how many units it is the median of,
    /// for the tracing-overhead comparison.
    pub unit_cost_ms: f64,
    pub rounds: usize,
    /// Workload properties (cluster config, input shape).
    pub props: Vec<(&'static str, String)>,
    /// Extra human-readable lines (generator lateness, span summaries).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Fold another run's request counts and checks into this one (the
    /// untraced half of a `--trace 1` run).
    pub fn merge_counts(&mut self, other: &Outcome) {
        for p in &other.phases {
            let mut q = p.clone();
            q.name = match p.name {
                "A" => "A-untraced",
                "B" => "B-untraced",
                "C" => "C-untraced",
                "epochs" => "epochs-untraced",
                "bursts" => "bursts-untraced",
                n => n,
            };
            self.phases.push(q);
        }
        self.check_failures
            .extend(other.check_failures.iter().cloned());
    }

    fn totals(&self) -> Phase {
        let mut total = Phase::new("total");
        for p in &self.phases {
            total.add(p);
        }
        total
    }

    /// Print the run and return whether it was correct.
    pub fn print(&self, traced: bool, wall: Duration) -> bool {
        for (k, v) in &self.props {
            println!("# property {k}: {v}");
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for p in &self.phases {
            println!(
                "# phase {:<16} attempted {:>8}  ok {:>8}  shed {:>5} (resent {:>6})  failed {:>5}  wrong {:>5}",
                p.name, p.attempted, p.ok, p.shed, p.resends, p.failed, p.wrong
            );
        }
        let total = self.totals();
        let mut problems: Vec<String> = self.check_failures.clone();
        if total.wrong > 0 {
            problems.push(format!("{} outputs did not match", total.wrong));
        }
        if total.attempted == 0 {
            problems.push("no request was attempted".into());
        }
        let shown = if traced { &self.layers } else { &self.e2e };
        for m in shown {
            println!(
                "{:<28} {:>14.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
            if !m.value.is_finite() {
                problems.push(format!("{} is not finite", m.name));
            } else if !traced && m.value <= 0.0 {
                problems.push(format!("{} is not positive", m.name));
            }
        }
        println!(
            "# fail_frac {:.6} ({} of {} requests shed, failed or wrong; {} never answered ok), wall {:.1} s",
            1.0 - total.ok_frac(),
            total.attempted - total.first_ok,
            total.attempted,
            total.not_ok(),
            wall.as_secs_f64()
        );
        for p in &problems {
            println!("# CHECK FAILED: {p}");
        }
        let correct = problems.is_empty();
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                // Rust's `Display` for floats never uses exponent notation,
                // so every finite value is a valid JSON number.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            total.attempted.max(1),
            total.not_ok(),
            metrics.join(", ")
        );
        correct
    }
}
