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
        let mut m = ActivationMatrix::zeros(n_rows, self.programs.len());
        if n_rows == 0 {
            return m;
        }
        let masks = self.predicate_masks(view, parallel);
        let ones = all_ones(n_rows);
        let mut rule_mask = vec![0u64; ones.len()];
        for (bit, prog) in self.programs.iter().enumerate() {
            // Whole blocks first, then the last few words one at a time.
            let (blocks, rest) = rule_mask.as_chunks_mut::<BLOCK_WORDS>();
            for (block, out) in blocks.iter_mut().enumerate() {
                let w0 = block * BLOCK_WORDS;
                *out = eval_block(prog, &masks, w0, &word_block(&ones, w0));
            }
            let w0 = blocks.len() * BLOCK_WORDS;
            for (w, out) in (w0..).zip(rest) {
                *out = eval_block(prog, &masks, w, &[ones[w]])[0];
            }
            m.scatter_bit(bit, &rule_mask);
        }
        m
    }

    /// Every unique predicate's row mask in one arena: predicate `i` holds
    /// words `i * mask_words..(i + 1) * mask_words`. Each [`map_chunks`]
    /// chunk fills its own contiguous slab. `view` must not be empty.
    fn predicate_masks(&self, view: &DatasetView<'_>, parallel: bool) -> PredicateMasks {
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
        let mut slabs = map_chunks(&self.preds, n_threads, |ps| {
            let mut slab = vec![0u64; ps.len() * mask_words];
            for (p, words) in ps.iter().zip(slab.chunks_exact_mut(mask_words)) {
                predicate_mask(p, view, words);
            }
            slab
        });
        let words = if slabs.len() == 1 { slabs.swap_remove(0) } else { slabs.concat() };
        PredicateMasks { words, mask_words }
    }
}

/// The predicate arena [`CompiledRules::predicate_masks`] builds.
struct PredicateMasks {
    words: Vec<u64>,
    mask_words: usize,
}

impl PredicateMasks {
    /// Words `w0..w0 + N` of predicate `i`'s row mask.
    fn block<const N: usize>(&self, i: usize, w0: usize) -> [u64; N] {
        word_block(&self.words, i * self.mask_words + w0)
    }
}

/// Words `at..at + N` of `words`.
fn word_block<const N: usize>(words: &[u64], at: usize) -> [u64; N] {
    words[at..at + N].try_into().expect("a range of N words converts to [u64; N]")
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

/// Scans one column and packs the predicate outcome of 64 rows per word
/// into `words`.
fn predicate_mask(pred: &Predicate, view: &DatasetView<'_>, words: &mut [u64]) {
    let col = view.source().column(pred.feature());
    let idx = view.indices();
    match *pred {
        Predicate::Gt { threshold, .. } => {
            fill_mask(col.as_f32().expect("compiled programs are well-typed"), idx, words, |v| v > threshold)
        }
        Predicate::Ge { threshold, .. } => {
            fill_mask(col.as_f32().expect("compiled programs are well-typed"), idx, words, |v| v >= threshold)
        }
        Predicate::Lt { threshold, .. } => {
            fill_mask(col.as_f32().expect("compiled programs are well-typed"), idx, words, |v| v < threshold)
        }
        Predicate::Le { threshold, .. } => {
            fill_mask(col.as_f32().expect("compiled programs are well-typed"), idx, words, |v| v <= threshold)
        }
        Predicate::Eq { category, .. } => {
            fill_mask(col.as_u32().expect("compiled programs are well-typed"), idx, words, |c| c == category)
        }
        Predicate::Neq { category, .. } => {
            fill_mask(col.as_u32().expect("compiled programs are well-typed"), idx, words, |c| c != category)
        }
    }
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

/// Words a program evaluates at a time: enough to spread the tree walk
/// over wide shards, few enough to keep each node's block on the stack.
const BLOCK_WORDS: usize = 8;

/// Evaluates `prog` over the `N` row-mask words from word `w0` on. `ones`
/// holds the same words of the all-rows mask, so `And` folds from it, `Or`
/// from 0, and `Not` re-masks with it: no result sets a bit past the last
/// row, where the scatter would index past the matrix. No node allocates,
/// and a fixed `N` lets each word loop compile to straight-line code.
fn eval_block<const N: usize>(
    prog: &Program,
    masks: &PredicateMasks,
    w0: usize,
    ones: &[u64; N],
) -> [u64; N] {
    let eval = |part| eval_block(part, masks, w0, ones);
    match prog {
        Program::Pred(i) => masks.block(*i, w0),
        Program::And(parts) => {
            parts.iter().fold(*ones, |acc, part| zip_words(acc, eval(part), |a, b| a & b))
        }
        Program::Or(parts) => {
            parts.iter().fold([0; N], |acc, part| zip_words(acc, eval(part), |a, b| a | b))
        }
        Program::Not(inner) => zip_words(eval(inner), *ones, |a, m| !a & m),
    }
}

fn zip_words<const N: usize>(a: [u64; N], b: [u64; N], op: impl Fn(u64, u64) -> u64) -> [u64; N] {
    std::array::from_fn(|k| op(a[k], b[k]))
}

/// The row mask selecting all `n_rows` rows, with the tail bits clear.
fn all_ones(n_rows: usize) -> Vec<u64> {
    let mut words = vec![!0u64; n_rows.div_ceil(64)];
    if !n_rows.is_multiple_of(64) {
        let last = words.len() - 1;
        words[last] = (1u64 << (n_rows % 64)) - 1;
    }
    words
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
        // 131 rows cross two word boundaries; 600 rows fill one whole
        // evaluation block and leave two words for the one-word path.
        for n in [131, 600] {
            let ds = dataset(n);
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
