//! Sharded per-client activation stores.
//!
//! At federation scale (1000+ clients, 1M+ rows) the monolithic
//! [`ActivationMatrix`] assembly path — re-packing every client's upload
//! bit-by-bit into one arena — is both the dominant cost and an
//! unnecessary copy: each client's activations already arrive as a
//! contiguous packed arena. [`ShardedActivations`] keeps one arena per
//! client and serves the tracing kernels zero-copy per-shard word views;
//! global row addressing goes through a flat `row → shard` table so the
//! hot path never binary-searches.
//!
//! The store is layout-compatible with the monolithic path:
//! [`ShardedActivations::to_matrix`] concatenates the shard arenas
//! word-for-word (shards in insertion order, rows in shard order), and a
//! property test pins the result bit-identical to assembling the same
//! rows through `ActivationMatrix::push_row`.

use crate::activation::ActivationMatrix;
use crate::batch::CompiledRules;
use crate::data::DatasetView;
use crate::error::{CoreError, Result};
use crate::parallel::{map_chunks, plan_threads, SPAWN_FLOOR_WORDS};

/// One client's slice of the federation: its packed activation rows plus
/// the matching labels.
#[derive(Debug, Clone)]
pub struct ActivationShard {
    /// Owning client id.
    pub client: u32,
    /// Bit-packed activations, one row per local instance.
    pub acts: ActivationMatrix,
    /// Per-row labels, `labels.len() == acts.n_rows()`.
    pub labels: Vec<u32>,
}

impl ActivationShard {
    /// Validates internal consistency (label count matches row count).
    pub fn validate(&self) -> Result<()> {
        if self.labels.len() != self.acts.n_rows() {
            return Err(CoreError::LengthMismatch {
                what: "shard labels",
                expected: self.acts.n_rows(),
                actual: self.labels.len(),
            });
        }
        Ok(())
    }
}

/// A federation's activations stored as one contiguous packed arena per
/// client, with flat global-row addressing across shards.
///
/// Global row order is shard insertion order, then local row order — the
/// same order the monolithic assembly path produces, so traces over
/// either store visit rows identically.
#[derive(Debug, Clone)]
pub struct ShardedActivations {
    n_bits: usize,
    n_rows: usize,
    shards: Vec<ActivationShard>,
    /// Global row index of each shard's first row (`starts[s+1] - starts[s]`
    /// is shard `s`'s row count); one extra trailing entry holds `n_rows`.
    starts: Vec<usize>,
    /// Shard index of every global row — one `u32` per row so the tracing
    /// hot path resolves `row → words` with two indexed loads, no search.
    shard_of: Vec<u32>,
}

impl ShardedActivations {
    /// Builds the store from per-client shards, preserving their order.
    ///
    /// All shards must share the activation width; labels must match row
    /// counts. Empty shards are allowed (a client may hold no rows).
    pub fn from_shards(shards: Vec<ActivationShard>) -> Result<Self> {
        let n_bits = shards.first().map_or(0, |s| s.acts.n_bits());
        let mut starts = Vec::with_capacity(shards.len() + 1);
        let mut shard_of = Vec::new();
        let mut n_rows = 0usize;
        for (si, shard) in shards.iter().enumerate() {
            shard.validate()?;
            if shard.acts.n_bits() != n_bits {
                return Err(CoreError::LengthMismatch {
                    what: "shard activation width",
                    expected: n_bits,
                    actual: shard.acts.n_bits(),
                });
            }
            starts.push(n_rows);
            n_rows += shard.acts.n_rows();
            shard_of.resize(n_rows, si as u32);
        }
        starts.push(n_rows);
        Ok(ShardedActivations { n_bits, n_rows, shards, starts, shard_of })
    }

    /// Evaluates `compiled` over each client's view and assembles the
    /// resulting shards, in `views` order.
    ///
    /// With `parallel = true` the per-shard batch evaluations are chunked
    /// over [`map_chunks`] threads (each shard's arena is written by
    /// exactly one thread); results are committed in shard order, so output
    /// is identical to the serial build.
    pub fn build(
        compiled: &CompiledRules,
        views: &[(u32, DatasetView<'_>)],
        parallel: bool,
    ) -> Result<Self> {
        let words_per_row = compiled.n_rules().div_ceil(64);
        let total_words: usize = views.iter().map(|(_, v)| v.len() * words_per_row).sum();
        let n_threads =
            if parallel { plan_threads(total_words, views.len(), SPAWN_FLOOR_WORDS, 0) } else { 1 };
        // Chunked workers fill their shards serially, so fan-outs never nest;
        // a lone chunk keeps the fill's own `parallel`.
        let fill_parallel = parallel && n_threads <= 1;
        let shards = map_chunks(views, n_threads, |vs| {
            vs.iter()
                .map(|(client, v)| ActivationShard {
                    client: *client,
                    acts: compiled.activation_matrix(v, fill_parallel),
                    labels: v.labels_vec(),
                })
                .collect::<Vec<_>>()
        });
        ShardedActivations::from_shards(shards.into_iter().flatten().collect())
    }

    /// Total rows across all shards.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Activation width (rule count) shared by every shard.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in global row order.
    pub fn shards(&self) -> &[ActivationShard] {
        &self.shards
    }

    /// One shard (zero-copy view into its arena).
    pub fn shard(&self, s: usize) -> &ActivationShard {
        &self.shards[s]
    }

    /// The packed words of a global row (two indexed loads, no search).
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        let s = self.shard_of[row] as usize;
        self.shards[s].acts.row_words(row - self.starts[s])
    }

    /// Label of a global row.
    #[inline]
    pub fn label(&self, row: usize) -> u32 {
        let s = self.shard_of[row] as usize;
        self.shards[s].labels[row - self.starts[s]]
    }

    /// Owning client of a global row.
    #[inline]
    pub fn client(&self, row: usize) -> u32 {
        self.shards[self.shard_of[row] as usize].client
    }

    /// Per-global-row client ids (the monolithic `client_of` vector).
    pub fn client_of(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.n_rows);
        for shard in &self.shards {
            out.resize(out.len() + shard.acts.n_rows(), shard.client);
        }
        out
    }

    /// Per-global-row labels (the monolithic label vector).
    pub fn labels(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.n_rows);
        for shard in &self.shards {
            out.extend_from_slice(&shard.labels);
        }
        out
    }

    /// Flattens into the monolithic `(activations, labels, client_of)`
    /// triple by word-level concatenation of the shard arenas.
    pub fn to_matrix(&self) -> Result<(ActivationMatrix, Vec<u32>, Vec<u32>)> {
        let mut acts = ActivationMatrix::with_capacity(self.n_rows, self.n_bits);
        for shard in &self.shards {
            acts.extend_from_words(shard.acts.n_rows(), shard.acts.as_words())?;
        }
        Ok((acts, self.labels(), self.client_of()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, FeatureKind, FeatureSchema};
    use crate::rule::{conjunction, Predicate, Rule};

    fn schema() -> crate::rule::SchemaRef {
        FeatureSchema::new(vec![
            ("x", FeatureKind::continuous(0.0, 1.0)),
            ("c", FeatureKind::discrete(3)),
        ])
    }

    fn dataset(n: usize, salt: u32) -> Dataset {
        let mut ds = Dataset::empty(schema(), 2);
        for i in 0..n {
            let x = ((i as u32 * 37 + salt * 11) % 100) as f32 / 100.0;
            let c = (i as u32 + salt) % 3;
            ds.push_row(&[x.into(), c.into()], (i % 2) as u32).unwrap();
        }
        ds
    }

    fn rules() -> Vec<Rule> {
        vec![
            conjunction(vec![Predicate::gt(0, 0.5)], 1, 1.0),
            conjunction(vec![Predicate::eq(1, 1)], 0, 0.5),
            conjunction(vec![Predicate::le(0, 0.3), Predicate::neq(1, 2)], 1, 0.25),
        ]
    }

    #[test]
    fn sharded_build_matches_monolithic_assembly() {
        let compiled = CompiledRules::compile(&rules(), &schema()).unwrap();
        let datasets: Vec<Dataset> = (0..4).map(|c| dataset(30 + c * 7, c as u32)).collect();
        let views: Vec<(u32, DatasetView<'_>)> =
            datasets.iter().enumerate().map(|(c, d)| (c as u32, d.view())).collect();
        let store = ShardedActivations::build(&compiled, &views, false).unwrap();

        // Monolithic reference: concat the datasets, evaluate once.
        let pooled = Dataset::concat(&datasets).unwrap();
        let mono = compiled.activation_matrix(&pooled.view(), false);

        let (flat, labels, client_of) = store.to_matrix().unwrap();
        assert_eq!(flat, mono);
        assert_eq!(labels, pooled.labels().to_vec());
        let expect_clients: Vec<u32> = datasets
            .iter()
            .enumerate()
            .flat_map(|(c, d)| std::iter::repeat_n(c as u32, d.len()))
            .collect();
        assert_eq!(client_of, expect_clients);

        // Global-row addressing agrees with the flat matrix.
        for row in 0..store.n_rows() {
            assert_eq!(store.row_words(row), mono.row_words(row), "row {row}");
            assert_eq!(store.label(row), labels[row]);
            assert_eq!(store.client(row), client_of[row]);
        }
    }

    #[test]
    fn parallel_build_is_identical() {
        let compiled = CompiledRules::compile(&rules(), &schema()).unwrap();
        let datasets: Vec<Dataset> = (0..6).map(|c| dataset(40, c as u32)).collect();
        let views: Vec<(u32, DatasetView<'_>)> =
            datasets.iter().enumerate().map(|(c, d)| (c as u32, d.view())).collect();
        let serial = ShardedActivations::build(&compiled, &views, false).unwrap();
        let parallel = ShardedActivations::build(&compiled, &views, true).unwrap();
        assert_eq!(serial.to_matrix().unwrap(), parallel.to_matrix().unwrap());
    }

    #[test]
    fn empty_shards_are_allowed() {
        let compiled = CompiledRules::compile(&rules(), &schema()).unwrap();
        let empty = Dataset::empty(schema(), 2);
        let full = dataset(10, 0);
        let views = vec![(0u32, empty.view()), (1u32, full.view())];
        let store = ShardedActivations::build(&compiled, &views, false).unwrap();
        assert_eq!(store.n_rows(), 10);
        assert_eq!(store.client(0), 1);
        assert_eq!(store.starts[1], 0);
    }

    #[test]
    fn mismatched_widths_rejected() {
        let a = ActivationShard { client: 0, acts: ActivationMatrix::zeros(2, 3), labels: vec![0, 1] };
        let b = ActivationShard { client: 1, acts: ActivationMatrix::zeros(1, 4), labels: vec![0] };
        assert!(ShardedActivations::from_shards(vec![a.clone(), b]).is_err());
        let bad_labels =
            ActivationShard { client: 2, acts: ActivationMatrix::zeros(2, 3), labels: vec![0] };
        assert!(ShardedActivations::from_shards(vec![a, bad_labels]).is_err());
    }
}
