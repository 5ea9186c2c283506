//! Compiled batch rule evaluation over columnar data.
//!
//! The per-row path (`Rule::activated`) pays an enum dispatch per cell; the
//! batch path compiles a rule set once into **predicate programs** and
//! evaluates each unique predicate over *all* rows of a [`DatasetView`] in
//! one dense column scan, producing a row-indexed bitmask per predicate.
//! Rule formulas then combine those masks with word-wide `AND`/`OR`/`NOT`,
//! and each rule's final row mask is scattered into the bit-packed
//! [`ActivationMatrix`].
//!
//! Compilation validates every predicate against the schema (typed
//! [`CoreError`](crate::error::CoreError) variants, e.g. `KindMismatch` for a
//! threshold predicate on a discrete column), so evaluation can assume
//! well-typed programs and scan raw `&[f32]` / `&[u32]` slices without
//! per-cell checks.

use std::collections::HashMap;

use crate::activation::ActivationMatrix;
use crate::data::{DatasetView, FeatureSchema};
use crate::error::Result;
use crate::parallel::{map_chunks, plan_threads, SPAWN_FLOOR_WORDS};
use crate::rule::{Predicate, Rule, RuleExpr};

/// A rule formula with its predicates rewritten to indices into the shared
/// unique-predicate pool.
#[derive(Debug, Clone)]
enum Program {
    Pred(usize),
    And(Vec<Program>),
    Or(Vec<Program>),
    Not(Box<Program>),
}

/// A rule set compiled for batch evaluation: the deduplicated predicate
/// pool plus one index-rewritten formula per rule (in activation-bit order).
#[derive(Debug, Clone)]
pub struct CompiledRules {
    preds: Vec<Predicate>,
    programs: Vec<Program>,
}

/// Dedup key: predicates are not `Hash`/`Eq` because of the `f32`
/// threshold, so key on its bit pattern (identical bits ⇒ identical
/// comparison results).
fn pred_key(p: &Predicate) -> (u8, usize, u32) {
    match *p {
        Predicate::Gt { feature, threshold } => (0, feature, threshold.to_bits()),
        Predicate::Ge { feature, threshold } => (1, feature, threshold.to_bits()),
        Predicate::Lt { feature, threshold } => (2, feature, threshold.to_bits()),
        Predicate::Le { feature, threshold } => (3, feature, threshold.to_bits()),
        Predicate::Eq { feature, category } => (4, feature, category),
        Predicate::Neq { feature, category } => (5, feature, category),
    }
}

impl CompiledRules {
    /// Compiles a rule set, validating every predicate against `schema`.
    pub fn compile(rules: &[Rule], schema: &FeatureSchema) -> Result<Self> {
        let mut preds = Vec::new();
        let mut index: HashMap<(u8, usize, u32), usize> = HashMap::new();
        let mut programs = Vec::with_capacity(rules.len());
        for rule in rules {
            programs.push(compile_expr(&rule.expr, schema, &mut preds, &mut index)?);
        }
        Ok(CompiledRules { preds, programs })
    }

    /// Number of compiled rules (activation bits).
    pub fn n_rules(&self) -> usize {
        self.programs.len()
    }

    /// Number of unique predicates shared across all rules.
    pub fn n_unique_predicates(&self) -> usize {
        self.preds.len()
    }

    /// Evaluates every rule over every row of `view`, producing the
    /// bit-packed activation matrix (row-major, one bit per rule).
    ///
    /// With `parallel = true` the predicate column scans are chunked over
    /// [`map_chunks`] threads; the combine/scatter stage stays serial
    /// because different rule bits of the same matrix row share `u64` words.
    /// Both modes produce identical output.
    pub fn activation_matrix(&self, view: &DatasetView<'_>, parallel: bool) -> ActivationMatrix {
        let n_rows = view.len();
        let masks = self.predicate_masks(view, parallel);
        let mut m = ActivationMatrix::zeros(n_rows, self.programs.len());
        for (bit, prog) in self.programs.iter().enumerate() {
            let rule_mask = eval_program(prog, &masks, n_rows);
            m.scatter_bit(bit, &rule_mask);
        }
        m
    }

    /// One row-indexed bitmask per unique predicate.
    fn predicate_masks(&self, view: &DatasetView<'_>, parallel: bool) -> Vec<Vec<u64>> {
        // Work per predicate is one packed mask of `len/64` words; plan the
        // thread count from the total word volume so tiny datasets (where
        // spawn overhead would dominate) stay serial instead of hitting a
        // fixed row cutoff.
        let mask_words = view.len().div_ceil(64);
        let n_threads = if parallel {
            plan_threads(mask_words * self.preds.len(), self.preds.len(), SPAWN_FLOOR_WORDS, 0)
        } else {
            1
        };
        map_chunks(&self.preds, n_threads, |ps| {
            ps.iter().map(|p| predicate_mask(p, view)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

fn compile_expr(
    expr: &RuleExpr,
    schema: &FeatureSchema,
    preds: &mut Vec<Predicate>,
    index: &mut HashMap<(u8, usize, u32), usize>,
) -> Result<Program> {
    match expr {
        RuleExpr::Pred(p) => {
            p.validate(schema)?;
            let slot = *index.entry(pred_key(p)).or_insert_with(|| {
                preds.push(*p);
                preds.len() - 1
            });
            Ok(Program::Pred(slot))
        }
        RuleExpr::And(parts) => Ok(Program::And(
            parts.iter().map(|p| compile_expr(p, schema, preds, index)).collect::<Result<_>>()?,
        )),
        RuleExpr::Or(parts) => Ok(Program::Or(
            parts.iter().map(|p| compile_expr(p, schema, preds, index)).collect::<Result<_>>()?,
        )),
        RuleExpr::Not(inner) => {
            Ok(Program::Not(Box::new(compile_expr(inner, schema, preds, index)?)))
        }
    }
}

/// Scans one column and packs the predicate outcome of 64 rows per word.
fn predicate_mask(pred: &Predicate, view: &DatasetView<'_>) -> Vec<u64> {
    let n = view.len();
    let mut words = vec![0u64; n.div_ceil(64)];
    let col = view.source().column(pred.feature());
    let idx = view.indices();
    match *pred {
        Predicate::Gt { threshold, .. } => {
            fill_mask(col.as_f32().expect("compiled programs are well-typed"), idx, &mut words, |v| v > threshold)
        }
        Predicate::Ge { threshold, .. } => {
            fill_mask(col.as_f32().expect("compiled programs are well-typed"), idx, &mut words, |v| v >= threshold)
        }
        Predicate::Lt { threshold, .. } => {
            fill_mask(col.as_f32().expect("compiled programs are well-typed"), idx, &mut words, |v| v < threshold)
        }
        Predicate::Le { threshold, .. } => {
            fill_mask(col.as_f32().expect("compiled programs are well-typed"), idx, &mut words, |v| v <= threshold)
        }
        Predicate::Eq { category, .. } => {
            fill_mask(col.as_u32().expect("compiled programs are well-typed"), idx, &mut words, |c| c == category)
        }
        Predicate::Neq { category, .. } => {
            fill_mask(col.as_u32().expect("compiled programs are well-typed"), idx, &mut words, |c| c != category)
        }
    }
    words
}

/// Branchless word fill: direct column scan for all-rows views, gathered
/// scan for index views.
fn fill_mask<T: Copy>(
    values: &[T],
    indices: Option<&[u32]>,
    words: &mut [u64],
    pred: impl Fn(T) -> bool,
) {
    match indices {
        None => {
            for (word, chunk) in words.iter_mut().zip(values.chunks(64)) {
                let mut w = 0u64;
                for (k, &v) in chunk.iter().enumerate() {
                    w |= (pred(v) as u64) << k;
                }
                *word = w;
            }
        }
        Some(idx) => {
            for (word, chunk) in words.iter_mut().zip(idx.chunks(64)) {
                let mut w = 0u64;
                for (k, &i) in chunk.iter().enumerate() {
                    w |= (pred(values[i as usize]) as u64) << k;
                }
                *word = w;
            }
        }
    }
}

/// Combines predicate masks according to the formula. Empty `And` is
/// all-ones, empty `Or` all-zeros; `Not` must clear the tail bits past
/// `n_rows` so they never leak into the scatter.
fn eval_program(prog: &Program, masks: &[Vec<u64>], n_rows: usize) -> Vec<u64> {
    match prog {
        Program::Pred(i) => masks[*i].clone(),
        Program::And(parts) => {
            let mut iter = parts.iter();
            let Some(first) = iter.next() else { return all_ones(n_rows) };
            let mut acc = eval_program(first, masks, n_rows);
            for part in iter {
                let m = eval_program(part, masks, n_rows);
                for (a, b) in acc.iter_mut().zip(&m) {
                    *a &= b;
                }
            }
            acc
        }
        Program::Or(parts) => {
            let mut acc = vec![0u64; n_rows.div_ceil(64)];
            for part in parts {
                let m = eval_program(part, masks, n_rows);
                for (a, b) in acc.iter_mut().zip(&m) {
                    *a |= b;
                }
            }
            acc
        }
        Program::Not(inner) => {
            let mut acc = eval_program(inner, masks, n_rows);
            for w in acc.iter_mut() {
                *w = !*w;
            }
            mask_tail(&mut acc, n_rows);
            acc
        }
    }
}

fn all_ones(n_rows: usize) -> Vec<u64> {
    let mut words = vec![!0u64; n_rows.div_ceil(64)];
    mask_tail(&mut words, n_rows);
    words
}

fn mask_tail(words: &mut [u64], n_rows: usize) {
    if !n_rows.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (n_rows % 64)) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, FeatureKind, FeatureSchema};
    use crate::error::CoreError;
    use crate::rule::{conjunction, disjunction};

    fn schema() -> crate::rule::SchemaRef {
        FeatureSchema::new(vec![
            ("x", FeatureKind::continuous(0.0, 1.0)),
            ("c", FeatureKind::discrete(3)),
        ])
    }

    fn dataset(n: usize) -> Dataset {
        let mut ds = Dataset::empty(schema(), 2);
        for i in 0..n {
            let x = (i as f32 * 0.37) % 1.0;
            let c = (i % 3) as u32;
            ds.push_row(&[x.into(), c.into()], (i % 2) as u32).unwrap();
        }
        ds
    }

    fn rules() -> Vec<Rule> {
        vec![
            conjunction(vec![Predicate::gt(0, 0.5), Predicate::eq(1, 1)], 1, 1.0),
            disjunction(vec![Predicate::le(0, 0.2), Predicate::neq(1, 0)], 0, 0.5),
            Rule::new(
                RuleExpr::not(RuleExpr::and(vec![
                    RuleExpr::pred(Predicate::gt(0, 0.5)),
                    RuleExpr::or(vec![]),
                ])),
                1,
                0.25,
            ),
            Rule::new(RuleExpr::And(vec![]), 0, 0.1),
        ]
    }

    #[test]
    fn dedup_shares_repeated_predicates() {
        let rs = rules();
        let compiled = CompiledRules::compile(&rs, &schema()).unwrap();
        assert_eq!(compiled.n_rules(), 4);
        // gt(0,0.5) appears twice but compiles once.
        assert_eq!(compiled.n_unique_predicates(), 4);
    }

    #[test]
    fn batch_matches_per_row_eval() {
        let ds = dataset(131); // crosses two word boundaries
        let rs = rules();
        let compiled = CompiledRules::compile(&rs, &schema()).unwrap();
        let m = compiled.activation_matrix(&ds.view(), false);
        assert_eq!(m.n_rows(), ds.len());
        for i in 0..ds.len() {
            let row = ds.row(i);
            for (bit, rule) in rs.iter().enumerate() {
                assert_eq!(m.get(i, bit), rule.activated(&row), "row {i} bit {bit}");
            }
        }
    }

    #[test]
    fn batch_on_view_matches_materialized() {
        let ds = dataset(100);
        let idx: Vec<usize> = vec![3, 3, 99, 0, 50, 7];
        let rs = rules();
        let compiled = CompiledRules::compile(&rs, &schema()).unwrap();
        let on_view = compiled.activation_matrix(&ds.view_of(&idx), false);
        let on_copy = compiled.activation_matrix(&ds.subset(&idx).view(), false);
        assert_eq!(on_view, on_copy);
    }

    #[test]
    fn parallel_matches_serial() {
        let ds = dataset(3000);
        let compiled = CompiledRules::compile(&rules(), &schema()).unwrap();
        let serial = compiled.activation_matrix(&ds.view(), false);
        let parallel = compiled.activation_matrix(&ds.view(), true);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn spawn_floor_keeps_tiny_datasets_serial_and_identical() {
        // 200 rows × 4 predicates is ~16 mask words — far below
        // SPAWN_FLOOR_WORDS, so the parallel flag must plan a single thread
        // (no spawn) yet still produce identical output.
        let ds = dataset(200);
        let compiled = CompiledRules::compile(&rules(), &schema()).unwrap();
        let mask_words = ds.len().div_ceil(64);
        let planned = crate::parallel::plan_threads(
            mask_words * compiled.n_unique_predicates(),
            compiled.n_unique_predicates(),
            SPAWN_FLOOR_WORDS,
            0,
        );
        assert_eq!(planned, 1);
        let serial = compiled.activation_matrix(&ds.view(), false);
        let parallel = compiled.activation_matrix(&ds.view(), true);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn compile_rejects_ill_typed_predicates() {
        // Threshold predicate on a discrete column.
        let bad = vec![conjunction(vec![Predicate::gt(1, 0.5)], 0, 1.0)];
        assert!(matches!(
            CompiledRules::compile(&bad, &schema()),
            Err(CoreError::KindMismatch { feature: 1 })
        ));
        // Equality predicate on a continuous column.
        let bad = vec![conjunction(vec![Predicate::eq(0, 1)], 0, 1.0)];
        assert!(matches!(
            CompiledRules::compile(&bad, &schema()),
            Err(CoreError::KindMismatch { feature: 0 })
        ));
    }

    #[test]
    fn empty_dataset_and_empty_rule_set() {
        let ds = Dataset::empty(schema(), 2);
        let compiled = CompiledRules::compile(&rules(), &schema()).unwrap();
        let m = compiled.activation_matrix(&ds.view(), false);
        assert_eq!((m.n_rows(), m.n_bits()), (0, 4));

        let none = CompiledRules::compile(&[], &schema()).unwrap();
        let m = none.activation_matrix(&dataset(5).view(), false);
        assert_eq!((m.n_rows(), m.n_bits()), (5, 0));
    }
}
