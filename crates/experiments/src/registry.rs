//! The catalogue of every exhibit in the paper, and the one path from
//! exhibit ids to outputs ([`run_exhibits`]).

use pbbf_metrics::{Figure, Table};

use crate::sweep::{self, ShardJob};
use crate::Effort;

/// A regenerated exhibit: a parameter table or a data figure.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A parameter listing (Tables 1–2).
    Table(Table),
    /// A multi-series plot (Figures 4–18).
    Figure(Figure),
}

impl Output {
    /// Renders the exhibit as aligned plain text.
    #[must_use]
    pub fn render_text(&self) -> String {
        match self {
            Output::Table(t) => t.render(),
            Output::Figure(f) => f.render_text(),
        }
    }

    /// Renders the exhibit as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        match self {
            Output::Table(t) => t.to_csv(),
            Output::Figure(f) => f.to_csv(),
        }
    }
}

/// Every table and figure of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Experiment {
    Table1,
    Table2,
    Fig04,
    Fig05,
    Fig06,
    Fig07,
    Fig08,
    Fig09,
    Fig10,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    Fig15,
    Fig16,
    Fig17,
    Fig18,
}

impl Experiment {
    /// All exhibits in paper order.
    #[must_use]
    pub fn all() -> Vec<Experiment> {
        use Experiment::*;
        vec![
            Table1, Table2, Fig04, Fig05, Fig06, Fig07, Fig08, Fig09, Fig10, Fig11, Fig12, Fig13,
            Fig14, Fig15, Fig16, Fig17, Fig18,
        ]
    }

    /// The exhibit's identifier, e.g. `"fig09"`.
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Fig04 => "fig04",
            Experiment::Fig05 => "fig05",
            Experiment::Fig06 => "fig06",
            Experiment::Fig07 => "fig07",
            Experiment::Fig08 => "fig08",
            Experiment::Fig09 => "fig09",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Fig12 => "fig12",
            Experiment::Fig13 => "fig13",
            Experiment::Fig14 => "fig14",
            Experiment::Fig15 => "fig15",
            Experiment::Fig16 => "fig16",
            Experiment::Fig17 => "fig17",
            Experiment::Fig18 => "fig18",
        }
    }

    /// Looks an exhibit up by its [`Experiment::id`].
    #[must_use]
    pub fn from_id(id: &str) -> Option<Experiment> {
        Experiment::all().into_iter().find(|e| e.id() == id)
    }

    /// Regenerates the exhibit: [`run_exhibits`] of this one exhibit on
    /// this process's threads ([`sweep::run_in_process`]).
    ///
    /// # Panics
    ///
    /// On an effort [`Effort::validate`] refuses, for a Monte Carlo
    /// figure, with `"{id}: {message}"`.
    #[must_use]
    pub fn run(&self, effort: &Effort, seed: u64) -> Output {
        match run_exhibits(&[*self], effort, seed, sweep::run_in_process) {
            Ok(mut outputs) => outputs.pop().expect("one output per exhibit"),
            Err(e) => panic!("{}: {e}", self.id()),
        }
    }
}

/// Regenerates `exhibits`, one output per entry, in request order. The
/// tables and figs 6, 7 and 12 run their own code. The Monte Carlo
/// figures are planned as one queue holding each of their tables once
/// ([`sweep`]); `execute` is called exactly once with it (empty when no
/// Monte Carlo figure is asked for) and returns each shard's values in
/// queue order, and each figure folds its range of them.
///
/// # Errors
///
/// [`Effort::validate`]'s refusal, before planning, when a Monte Carlo
/// figure is asked for; otherwise `execute`'s error.
pub fn run_exhibits<E>(
    exhibits: &[Experiment],
    effort: &Effort,
    seed: u64,
    execute: E,
) -> Result<Vec<Output>, String>
where
    E: FnOnce(&[ShardJob]) -> Result<Vec<Vec<Option<f64>>>, String>,
{
    let sweepable = sweep::sweepable_figures();
    let figures: Vec<&str> = exhibits
        .iter()
        .map(Experiment::id)
        .filter(|id| sweepable.contains(id))
        .collect();
    if !figures.is_empty() {
        effort.validate()?;
    }
    let plan = sweep::plan_sweep(&figures, effort, seed);
    let values = execute(&plan.queue)?;
    let mut planned = plan.figures.into_iter();
    Ok(exhibits
        .iter()
        .map(|exp| match exp {
            Experiment::Table1 => Output::Table(crate::table1()),
            Experiment::Table2 => Output::Table(crate::table2()),
            Experiment::Fig06 => Output::Figure(crate::fig06(effort, seed)),
            Experiment::Fig07 => Output::Figure(crate::fig07(effort, seed)),
            Experiment::Fig12 => Output::Figure(crate::fig12(effort, seed)),
            _ => {
                let (manifest, range) = planned.next().expect("a planned figure");
                Output::Figure(sweep::assemble_sweep(&manifest, values[range].to_vec()))
            }
        })
        .collect())
}

#[cfg(test)]
impl Experiment {
    /// Runs a figure exhibit and unwraps its figure.
    pub(crate) fn figure(&self, effort: &Effort, seed: u64) -> Figure {
        match self.run(effort, seed) {
            Output::Figure(f) => f,
            Output::Table(_) => unreachable!("{} is a figure", self.id()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_complete() {
        // 2 tables + 15 figures (Figs 1-3 are protocol diagrams, not data).
        assert_eq!(Experiment::all().len(), 17);
    }

    #[test]
    fn ids_round_trip() {
        for e in Experiment::all() {
            assert_eq!(Experiment::from_id(e.id()), Some(e));
        }
        assert_eq!(Experiment::from_id("fig99"), None);
    }

    #[test]
    fn tables_run_instantly() {
        let e = Effort::quick();
        let t1 = Experiment::Table1.run(&e, 0);
        assert!(t1.render_text().contains("P_TX"));
        assert!(t1.to_csv().contains("Parameter"));
        let t2 = Experiment::Table2.run(&e, 0);
        assert!(t2.render_text().contains("Delta"));
    }

    #[test]
    fn one_call_equals_each_exhibit_alone() {
        use Experiment::*;
        let e = Effort::quick();
        let alone = |list: &[Experiment], seed| -> Vec<Output> {
            list.iter().map(|exp| exp.run(&e, seed)).collect()
        };
        // Out of catalogue order, a repeat, and own-code exhibits between
        // figures of all three tables, on threads; then the whole
        // catalogue one shard at a time, so every Monte Carlo figure
        // assembles from its shared table.
        let mixed = [Fig17, Fig04, Table1, Fig13, Fig04, Fig06, Fig05];
        let all = Experiment::all();
        for seed in [3, 2005] {
            let threaded = run_exhibits(&mixed, &e, seed, sweep::run_in_process);
            assert_eq!(threaded, Ok(alone(&mixed, seed)), "seed {seed}");
            let serial = run_exhibits(&all, &e, seed, |queue| {
                queue.iter().map(sweep::run_sweep_shard).collect()
            });
            assert_eq!(serial, Ok(alone(&all, seed)), "seed {seed}");
        }
    }

    /// The queue lengths `run_exhibits` hands its executor, which refuses
    /// each queue after counting it, so nothing runs.
    fn queued(exhibits: &[Experiment], effort: &Effort) -> Vec<usize> {
        let mut calls = Vec::new();
        let refused = run_exhibits(exhibits, effort, 2005, |queue| {
            calls.push(queue.len());
            Err("counted".to_string())
        });
        assert_eq!(refused, Err("counted".to_string()));
        calls
    }

    #[test]
    fn each_table_is_queued_once_in_one_executor_call() {
        use Experiment::*;
        let quick = Effort::quick();
        // 30 Δ-table, 32 ideal-table and 26 Q-table shards of 3 runs.
        let list = [Fig17, Fig04, Table1, Fig13, Fig04, Fig06, Fig05];
        assert_eq!(queued(&list, &quick), [88]);
        assert_eq!(queued(&[Table1, Fig06], &quick), [0]);
        // 114 + 92 + 60 shards of up to 8 runs, not one table per figure.
        assert_eq!(queued(&Experiment::all(), &Effort::paper()), [266]);
    }

    fn refused_effort() -> Effort {
        Effort {
            q_points: 4_000_000_000,
            runs: 4_000_000_000,
            ..Effort::quick()
        }
    }

    #[test]
    fn a_refused_effort_is_refused_before_planning() {
        let err = run_exhibits(&[Experiment::Fig13], &refused_effort(), 1, |_| {
            unreachable!("nothing is executed for a refused effort")
        })
        .unwrap_err();
        assert!(err.starts_with("q_points:"), "{err}");
        // Own-code exhibits alone read no Monte Carlo field.
        let table = run_exhibits(&[Experiment::Table1], &refused_effort(), 1, |queue| {
            Ok(vec![Vec::new(); queue.len()])
        });
        assert_eq!(table, Ok(vec![Output::Table(crate::table1())]));
    }

    #[test]
    #[should_panic(expected = "fig13: q_points:")]
    fn run_panics_on_a_refused_effort() {
        let _ = Experiment::Fig13.run(&refused_effort(), 1);
    }
}
