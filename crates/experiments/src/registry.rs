//! The catalogue of every exhibit in the paper.

use pbbf_metrics::{Figure, Table};

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

    /// Regenerates the exhibit. The tables and figs 6, 7 and 12 have
    /// code of their own; every other figure is a column of a Monte
    /// Carlo table, assembled from its manifest's shards run on this
    /// process's threads — the path `pbbf sweep` runs on worker
    /// processes ([`crate::sweep`]).
    ///
    /// # Panics
    ///
    /// On an effort [`Effort::validate`] refuses, for a Monte Carlo
    /// figure.
    #[must_use]
    pub fn run(&self, effort: &Effort, seed: u64) -> Output {
        match self {
            Experiment::Table1 => Output::Table(crate::table1()),
            Experiment::Table2 => Output::Table(crate::table2()),
            Experiment::Fig06 => Output::Figure(crate::fig06(effort, seed)),
            Experiment::Fig07 => Output::Figure(crate::fig07(effort, seed)),
            Experiment::Fig12 => Output::Figure(crate::fig12(effort, seed)),
            figure => Output::Figure(crate::sweep::run_figure(figure.id(), effort, seed)),
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
}
