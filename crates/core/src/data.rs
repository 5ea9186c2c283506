//! Shared dataset and feature-schema types.
//!
//! CTFL operates on tabular classification data with a **common feature
//! space** across participants (horizontal FL). Features are either
//! continuous (with a known value domain, exchanged freely because it leaks
//! no instance-level information — see paper Section V) or discrete with a
//! fixed arity agreed by the federation.
//!
//! Storage is **columnar**: each feature lives in its own typed [`Column`]
//! (`Vec<f32>` or `Vec<u32>`), so a predicate scan touches one dense array
//! instead of enum-dispatching per cell. The row-oriented API
//! ([`Dataset::row`], [`Dataset::push_row`], [`Dataset::iter`],
//! [`Dataset::from_rows`]) is preserved as a compatibility layer on top.
//! Row selection without copying cell data goes through [`DatasetView`].

use std::sync::Arc;

use crate::error::{CoreError, Result};

/// The kind of a single feature column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureKind {
    /// A real-valued feature with an (inclusive) value domain.
    ///
    /// The domain is used by the binarization layer to sample candidate
    /// discretization bounds without inspecting private data.
    Continuous {
        /// Lower end of the value domain.
        min: f32,
        /// Upper end of the value domain.
        max: f32,
    },
    /// A categorical feature taking values in `0..arity`.
    ///
    /// Following the paper, the federation fixes the category set up front;
    /// implementations typically reserve the last category as an `Unknown`
    /// slot for unseen values.
    Discrete {
        /// Number of categories.
        arity: u32,
    },
}

impl FeatureKind {
    /// Shorthand constructor for a continuous feature.
    pub fn continuous(min: f32, max: f32) -> Self {
        FeatureKind::Continuous { min, max }
    }

    /// Shorthand constructor for a discrete feature.
    pub fn discrete(arity: u32) -> Self {
        FeatureKind::Discrete { arity }
    }

    /// Whether this feature is continuous.
    pub fn is_continuous(&self) -> bool {
        matches!(self, FeatureKind::Continuous { .. })
    }
}

/// A named feature column.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpec {
    /// Human-readable feature name (used when pretty-printing rules).
    pub name: String,
    /// Kind (continuous or discrete).
    pub kind: FeatureKind,
}

/// The common feature space shared by all participants.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSchema {
    features: Vec<FeatureSpec>,
}

impl FeatureSchema {
    /// Builds a schema from `(name, kind)` pairs.
    pub fn new<S: Into<String>>(features: Vec<(S, FeatureKind)>) -> Arc<Self> {
        Arc::new(FeatureSchema {
            features: features
                .into_iter()
                .map(|(name, kind)| FeatureSpec { name: name.into(), kind })
                .collect(),
        })
    }

    /// Number of feature columns.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the schema has no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The spec of feature `i`, if in range.
    pub fn feature(&self, i: usize) -> Option<&FeatureSpec> {
        self.features.get(i)
    }

    /// The name of feature `i`, or `"f<i>"` if out of range.
    ///
    /// Falling back to a synthetic name keeps `Display` implementations
    /// infallible: a malformed rule still prints, it just prints uglier.
    pub fn name_of(&self, i: usize) -> String {
        self.features
            .get(i)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| format!("f{i}"))
    }

    /// Iterates over feature specs.
    pub fn iter(&self) -> impl Iterator<Item = &FeatureSpec> {
        self.features.iter()
    }

    /// Validates a row of values against this schema.
    pub fn validate_row(&self, row: &[FeatureValue]) -> Result<()> {
        if row.len() != self.len() {
            return Err(CoreError::LengthMismatch {
                what: "row",
                expected: self.len(),
                actual: row.len(),
            });
        }
        for (i, (value, spec)) in row.iter().zip(&self.features).enumerate() {
            match (value, spec.kind) {
                (FeatureValue::Continuous(_), FeatureKind::Continuous { .. }) => {}
                (FeatureValue::Discrete(c), FeatureKind::Discrete { arity }) => {
                    if *c >= arity {
                        return Err(CoreError::CategoryOutOfRange {
                            feature: i,
                            category: *c,
                            arity,
                        });
                    }
                }
                _ => return Err(CoreError::KindMismatch { feature: i }),
            }
        }
        Ok(())
    }
}

/// A single feature value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureValue {
    /// Real-valued.
    Continuous(f32),
    /// Categorical, a category index.
    Discrete(u32),
}

impl FeatureValue {
    /// The continuous value, if this is one.
    pub fn as_continuous(&self) -> Option<f32> {
        match self {
            FeatureValue::Continuous(v) => Some(*v),
            FeatureValue::Discrete(_) => None,
        }
    }

    /// The category index, if this is discrete.
    pub fn as_discrete(&self) -> Option<u32> {
        match self {
            FeatureValue::Discrete(c) => Some(*c),
            FeatureValue::Continuous(_) => None,
        }
    }
}

impl From<f32> for FeatureValue {
    fn from(v: f32) -> Self {
        FeatureValue::Continuous(v)
    }
}

impl From<u32> for FeatureValue {
    fn from(c: u32) -> Self {
        FeatureValue::Discrete(c)
    }
}

/// One typed feature column: the unit of storage and of batch evaluation.
///
/// Keeping the two physical types separate (instead of `Vec<FeatureValue>`)
/// lets predicate programs and the NN encoder scan a dense `&[f32]` /
/// `&[u32]` with no per-cell dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Continuous feature values.
    F32(Vec<f32>),
    /// Discrete category indices.
    U32(Vec<u32>),
}

impl Column {
    /// An empty column of the physical type matching `kind`.
    pub fn empty_for(kind: FeatureKind) -> Self {
        match kind {
            FeatureKind::Continuous { .. } => Column::F32(Vec::new()),
            FeatureKind::Discrete { .. } => Column::U32(Vec::new()),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::F32(v) => v.len(),
            Column::U32(v) => v.len(),
        }
    }

    /// Whether the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense continuous values, if this is an `F32` column.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            Column::F32(v) => Some(v),
            Column::U32(_) => None,
        }
    }

    /// The dense category indices, if this is a `U32` column.
    pub fn as_u32(&self) -> Option<&[u32]> {
        match self {
            Column::U32(v) => Some(v),
            Column::F32(_) => None,
        }
    }

    /// The value at row `i` boxed back into the row-oriented enum.
    pub fn value(&self, i: usize) -> FeatureValue {
        match self {
            Column::F32(v) => FeatureValue::Continuous(v[i]),
            Column::U32(v) => FeatureValue::Discrete(v[i]),
        }
    }

    fn push(&mut self, value: FeatureValue) {
        match (self, value) {
            (Column::F32(col), FeatureValue::Continuous(v)) => col.push(v),
            (Column::U32(col), FeatureValue::Discrete(c)) => col.push(c),
            // `FeatureSchema::validate_row` runs before any push.
            _ => unreachable!("column push after schema validation"),
        }
    }

    /// Appends `other[i]` for each `i` in `indices` (duplicates allowed).
    fn extend_gather(&mut self, other: &Column, indices: &[u32]) {
        match (self, other) {
            (Column::F32(dst), Column::F32(src)) => {
                dst.extend(indices.iter().map(|&i| src[i as usize]));
            }
            (Column::U32(dst), Column::U32(src)) => {
                dst.extend(indices.iter().map(|&i| src[i as usize]));
            }
            _ => unreachable!("columns over the same schema share physical types"),
        }
    }

    fn extend_all(&mut self, other: &Column) {
        match (self, other) {
            (Column::F32(dst), Column::F32(src)) => dst.extend_from_slice(src),
            (Column::U32(dst), Column::U32(src)) => dst.extend_from_slice(src),
            _ => unreachable!("columns over the same schema share physical types"),
        }
    }

    fn kind_matches(&self, kind: FeatureKind) -> bool {
        matches!(
            (self, kind),
            (Column::F32(_), FeatureKind::Continuous { .. })
                | (Column::U32(_), FeatureKind::Discrete { .. })
        )
    }
}

/// A labelled tabular dataset with a shared [`FeatureSchema`].
///
/// Values are stored one typed [`Column`] per feature; the schema is
/// reference-counted so datasets derived from one another (partitions,
/// train/test splits) share it cheaply. Labels are `u32` throughout —
/// the single label representation across the workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Arc<FeatureSchema>,
    columns: Vec<Column>,
    labels: Vec<u32>,
    n_classes: usize,
}

impl Dataset {
    /// Creates an empty dataset over `schema` with `n_classes` labels.
    pub fn empty(schema: Arc<FeatureSchema>, n_classes: usize) -> Self {
        let columns = schema.iter().map(|s| Column::empty_for(s.kind)).collect();
        Dataset { schema, columns, labels: Vec::new(), n_classes }
    }

    /// Creates a dataset from row-oriented parts (compatibility layer).
    pub fn from_rows(
        schema: Arc<FeatureSchema>,
        n_classes: usize,
        rows: Vec<Vec<FeatureValue>>,
        labels: Vec<u32>,
    ) -> Result<Self> {
        if rows.len() != labels.len() {
            return Err(CoreError::LengthMismatch {
                what: "labels",
                expected: rows.len(),
                actual: labels.len(),
            });
        }
        let mut ds = Dataset::empty(schema, n_classes);
        for (row, &label) in rows.iter().zip(&labels) {
            ds.push_row(row, label)?;
        }
        Ok(ds)
    }

    /// Creates a dataset directly from typed columns — the fast path for
    /// loaders that already produce columnar data (CSV, synthetic,
    /// tic-tac-toe). Validates column kinds, lengths, category ranges, and
    /// label ranges against the schema.
    pub fn from_columns(
        schema: Arc<FeatureSchema>,
        n_classes: usize,
        columns: Vec<Column>,
        labels: Vec<u32>,
    ) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(CoreError::LengthMismatch {
                what: "columns",
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        for (f, (col, spec)) in columns.iter().zip(schema.iter()).enumerate() {
            if !col.kind_matches(spec.kind) {
                return Err(CoreError::KindMismatch { feature: f });
            }
            if col.len() != labels.len() {
                return Err(CoreError::LengthMismatch {
                    what: "column",
                    expected: labels.len(),
                    actual: col.len(),
                });
            }
            if let (Column::U32(values), FeatureKind::Discrete { arity }) = (col, spec.kind) {
                if let Some(&c) = values.iter().find(|&&c| c >= arity) {
                    return Err(CoreError::CategoryOutOfRange { feature: f, category: c, arity });
                }
            }
        }
        if let Some(&l) = labels.iter().find(|&&l| l as usize >= n_classes) {
            return Err(CoreError::ClassOutOfRange { class: l as usize, n_classes });
        }
        Ok(Dataset { schema, columns, labels, n_classes })
    }

    /// Appends one labelled row after validating it against the schema.
    pub fn push_row(&mut self, row: &[FeatureValue], label: u32) -> Result<()> {
        self.schema.validate_row(row)?;
        if label as usize >= self.n_classes {
            return Err(CoreError::ClassOutOfRange {
                class: label as usize,
                n_classes: self.n_classes,
            });
        }
        for (col, &value) in self.columns.iter_mut().zip(row) {
            col.push(value);
        }
        self.labels.push(label);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The shared feature schema.
    pub fn schema(&self) -> &Arc<FeatureSchema> {
        &self.schema
    }

    /// The typed column of feature `f`.
    ///
    /// # Panics
    /// Panics if `f >= self.schema().len()`.
    pub fn column(&self, f: usize) -> &Column {
        &self.columns[f]
    }

    /// All feature columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The value of feature `f` in row `i`.
    pub fn value(&self, i: usize, f: usize) -> FeatureValue {
        self.columns[f].value(i)
    }

    /// Feature values of row `i`, materialized from the columns
    /// (compatibility layer; prefer [`Dataset::column`] in hot paths).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> Vec<FeatureValue> {
        assert!(i < self.len(), "row {i} out of range ({} rows)", self.len());
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Label of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Overwrites the label of row `i` (used by adverse-behaviour injectors).
    pub fn set_label(&mut self, i: usize, label: u32) -> Result<()> {
        if label as usize >= self.n_classes {
            return Err(CoreError::ClassOutOfRange {
                class: label as usize,
                n_classes: self.n_classes,
            });
        }
        self.labels[i] = label;
        Ok(())
    }

    /// Iterates over `(row, label)` pairs (rows materialized per step).
    pub fn iter(&self) -> impl Iterator<Item = (Vec<FeatureValue>, u32)> + '_ {
        (0..self.len()).map(move |i| (self.row(i), self.labels[i]))
    }

    /// A zero-copy view over all rows.
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView { data: self, indices: None }
    }

    /// A zero-copy view over the rows at `indices` (in order; duplicates
    /// allowed — data replication is modelled by repeating indices).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn view_of(&self, indices: &[usize]) -> DatasetView<'_> {
        self.view_of_rows(indices.iter().map(|&i| i as u32).collect())
    }

    /// Like [`Dataset::view_of`], taking ownership of compact `u32` indices.
    pub fn view_of_rows(&self, indices: Vec<u32>) -> DatasetView<'_> {
        let n = self.len();
        assert!(
            indices.iter().all(|&i| (i as usize) < n),
            "view index out of range ({n} rows)"
        );
        DatasetView { data: self, indices: Some(indices) }
    }

    /// A new dataset containing the rows at `indices` (in order; duplicates
    /// allowed). Equivalent to `self.view_of(indices).materialize()`.
    pub fn subset(&self, indices: &[usize]) -> Self {
        self.view_of(indices).materialize()
    }

    /// Appends every row selected by `view` (gathering straight from its
    /// source columns — no intermediate dataset is built).
    pub fn extend_from_view(&mut self, view: &DatasetView<'_>) -> Result<()> {
        if *view.schema() != self.schema {
            return Err(CoreError::InvalidParameter {
                name: "view",
                message: "view schema differs from dataset schema".into(),
            });
        }
        match view.indices() {
            None => {
                for (dst, src) in self.columns.iter_mut().zip(&view.data.columns) {
                    dst.extend_all(src);
                }
                self.labels.extend_from_slice(&view.data.labels);
            }
            Some(idx) => {
                for (dst, src) in self.columns.iter_mut().zip(&view.data.columns) {
                    dst.extend_gather(src, idx);
                }
                self.labels.extend(idx.iter().map(|&i| view.data.labels[i as usize]));
            }
        }
        Ok(())
    }

    /// Concatenates several datasets over the same schema.
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a Dataset>) -> Result<Self> {
        let mut iter = parts.into_iter();
        let first = iter.next().ok_or(CoreError::Empty { what: "dataset list" })?;
        let mut out = first.clone();
        for part in iter {
            out.extend_from_view(&part.view())?;
        }
        Ok(out)
    }

    /// Per-class row counts (the empirical label distribution).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }
}

/// A zero-copy row selection over a [`Dataset`]: shared columns plus an
/// optional owned index list (`None` = all rows, in order).
///
/// Views are what partitioners, splitters, adverse injectors, and coalition
/// construction hand around — selecting rows never clones cell data. The
/// batch evaluator and the NN encoder consume views directly; call
/// [`DatasetView::materialize`] only when an owned [`Dataset`] is required.
#[derive(Debug, Clone)]
pub struct DatasetView<'a> {
    data: &'a Dataset,
    indices: Option<Vec<u32>>,
}

impl<'a> DatasetView<'a> {
    /// The underlying dataset the view selects from.
    pub fn source(&self) -> &'a Dataset {
        self.data
    }

    /// The selected source-row indices, or `None` for an all-rows view.
    pub fn indices(&self) -> Option<&[u32]> {
        self.indices.as_deref()
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match &self.indices {
            None => self.data.len(),
            Some(idx) => idx.len(),
        }
    }

    /// Whether the view selects no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared feature schema.
    pub fn schema(&self) -> &Arc<FeatureSchema> {
        self.data.schema()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.data.n_classes()
    }

    /// The source-row index backing view row `i`.
    pub fn row_index(&self, i: usize) -> usize {
        match &self.indices {
            None => i,
            Some(idx) => idx[i] as usize,
        }
    }

    /// Label of view row `i`.
    pub fn label(&self, i: usize) -> u32 {
        self.data.labels[self.row_index(i)]
    }

    /// The labels of the selected rows, gathered into an owned vector.
    pub fn labels_vec(&self) -> Vec<u32> {
        match &self.indices {
            None => self.data.labels.clone(),
            Some(idx) => idx.iter().map(|&i| self.data.labels[i as usize]).collect(),
        }
    }

    /// Feature values of view row `i`, materialized.
    pub fn row(&self, i: usize) -> Vec<FeatureValue> {
        self.data.row(self.row_index(i))
    }

    /// Per-class row counts over the selected rows.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.data.n_classes()];
        for i in 0..self.len() {
            counts[self.label(i) as usize] += 1;
        }
        counts
    }

    /// Copies the selected rows into an owned [`Dataset`].
    pub fn materialize(&self) -> Dataset {
        match self.indices() {
            None => self.data.clone(),
            Some(idx) => {
                let columns = self
                    .data
                    .columns
                    .iter()
                    .map(|src| {
                        let mut dst = match src {
                            Column::F32(_) => Column::F32(Vec::with_capacity(idx.len())),
                            Column::U32(_) => Column::U32(Vec::with_capacity(idx.len())),
                        };
                        dst.extend_gather(src, idx);
                        dst
                    })
                    .collect();
                Dataset {
                    schema: Arc::clone(&self.data.schema),
                    columns,
                    labels: idx.iter().map(|&i| self.data.labels[i as usize]).collect(),
                    n_classes: self.data.n_classes,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_schema() -> Arc<FeatureSchema> {
        FeatureSchema::new(vec![
            ("age", FeatureKind::continuous(0.0, 100.0)),
            ("job", FeatureKind::discrete(3)),
        ])
    }

    #[test]
    fn push_and_read_rows() {
        let mut ds = Dataset::empty(mixed_schema(), 2);
        ds.push_row(&[30.0.into(), 1u32.into()], 0).unwrap();
        ds.push_row(&[55.0.into(), 2u32.into()], 1).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(0)[0].as_continuous(), Some(30.0));
        assert_eq!(ds.row(1)[1].as_discrete(), Some(2));
        assert_eq!(ds.label(1), 1);
        assert_eq!(ds.class_counts(), vec![1, 1]);
    }

    #[test]
    fn columns_are_typed_and_dense() {
        let mut ds = Dataset::empty(mixed_schema(), 2);
        ds.push_row(&[30.0.into(), 1u32.into()], 0).unwrap();
        ds.push_row(&[55.0.into(), 2u32.into()], 1).unwrap();
        assert_eq!(ds.column(0).as_f32(), Some(&[30.0f32, 55.0][..]));
        assert_eq!(ds.column(1).as_u32(), Some(&[1u32, 2][..]));
        assert_eq!(ds.column(0).as_u32(), None);
        assert_eq!(ds.value(1, 0), FeatureValue::Continuous(55.0));
    }

    #[test]
    fn from_columns_validates() {
        let schema = mixed_schema();
        let ds = Dataset::from_columns(
            Arc::clone(&schema),
            2,
            vec![Column::F32(vec![1.0, 2.0]), Column::U32(vec![0, 2])],
            vec![0, 1],
        )
        .unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.label(1), 1);

        // Kind mismatch.
        assert!(matches!(
            Dataset::from_columns(
                Arc::clone(&schema),
                2,
                vec![Column::U32(vec![0]), Column::U32(vec![0])],
                vec![0],
            ),
            Err(CoreError::KindMismatch { feature: 0 })
        ));
        // Ragged columns.
        assert!(matches!(
            Dataset::from_columns(
                Arc::clone(&schema),
                2,
                vec![Column::F32(vec![1.0]), Column::U32(vec![0, 1])],
                vec![0],
            ),
            Err(CoreError::LengthMismatch { what: "column", .. })
        ));
        // Category out of range.
        assert!(matches!(
            Dataset::from_columns(
                Arc::clone(&schema),
                2,
                vec![Column::F32(vec![1.0]), Column::U32(vec![9])],
                vec![0],
            ),
            Err(CoreError::CategoryOutOfRange { feature: 1, category: 9, arity: 3 })
        ));
        // Label out of range.
        assert!(matches!(
            Dataset::from_columns(
                schema,
                2,
                vec![Column::F32(vec![1.0]), Column::U32(vec![0])],
                vec![7],
            ),
            Err(CoreError::ClassOutOfRange { class: 7, n_classes: 2 })
        ));
    }

    #[test]
    fn rejects_kind_mismatch() {
        let mut ds = Dataset::empty(mixed_schema(), 2);
        let err = ds.push_row(&[1u32.into(), 1u32.into()], 0).unwrap_err();
        assert_eq!(err, CoreError::KindMismatch { feature: 0 });
    }

    #[test]
    fn rejects_out_of_range_category() {
        let mut ds = Dataset::empty(mixed_schema(), 2);
        let err = ds.push_row(&[1.0.into(), 7u32.into()], 0).unwrap_err();
        assert!(matches!(err, CoreError::CategoryOutOfRange { feature: 1, category: 7, arity: 3 }));
    }

    #[test]
    fn rejects_bad_label_and_bad_width() {
        let mut ds = Dataset::empty(mixed_schema(), 2);
        assert!(matches!(
            ds.push_row(&[1.0.into(), 1u32.into()], 5),
            Err(CoreError::ClassOutOfRange { class: 5, n_classes: 2 })
        ));
        assert!(matches!(
            ds.push_row(&[1.0.into()], 0),
            Err(CoreError::LengthMismatch { what: "row", .. })
        ));
    }

    #[test]
    fn subset_allows_duplicates() {
        let mut ds = Dataset::empty(mixed_schema(), 2);
        ds.push_row(&[1.0.into(), 0u32.into()], 0).unwrap();
        ds.push_row(&[2.0.into(), 1u32.into()], 1).unwrap();
        let sub = ds.subset(&[1, 1, 0]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.label(0), 1);
        assert_eq!(sub.label(2), 0);
        assert_eq!(sub.row(0)[0].as_continuous(), Some(2.0));
    }

    #[test]
    fn view_matches_materialized_subset() {
        let mut ds = Dataset::empty(mixed_schema(), 2);
        for i in 0..10u32 {
            ds.push_row(&[(i as f32).into(), (i % 3).into()], i % 2).unwrap();
        }
        let idx = [7usize, 2, 2, 9, 0];
        let view = ds.view_of(&idx);
        assert_eq!(view.len(), 5);
        assert_eq!(view.label(0), 1);
        assert_eq!(view.row(3), ds.row(9));
        assert_eq!(view.materialize(), ds.subset(&idx));
        assert_eq!(view.labels_vec(), vec![1, 0, 0, 1, 0]);
        assert_eq!(view.class_counts(), vec![3, 2]);

        // All-rows view materializes back to an equal dataset.
        assert_eq!(ds.view().materialize(), ds);
        assert_eq!(ds.view().len(), ds.len());
    }

    #[test]
    fn extend_from_view_gathers_rows() {
        let mut ds = Dataset::empty(mixed_schema(), 2);
        ds.push_row(&[1.0.into(), 0u32.into()], 0).unwrap();
        ds.push_row(&[2.0.into(), 1u32.into()], 1).unwrap();
        let mut out = ds.clone();
        out.extend_from_view(&ds.view_of(&[1, 1])).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out, Dataset::concat([&ds, &ds.subset(&[1, 1])]).unwrap());

        let other_schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let c = Dataset::empty(other_schema, 2);
        assert!(out.extend_from_view(&c.view()).is_err());
    }

    #[test]
    fn concat_checks_schema() {
        let mut a = Dataset::empty(mixed_schema(), 2);
        a.push_row(&[1.0.into(), 0u32.into()], 0).unwrap();
        let b = a.clone();
        let joined = Dataset::concat([&a, &b]).unwrap();
        assert_eq!(joined.len(), 2);

        let other_schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let c = Dataset::empty(other_schema, 2);
        assert!(Dataset::concat([&a, &c]).is_err());
    }

    #[test]
    fn set_label_validates() {
        let mut ds = Dataset::empty(mixed_schema(), 2);
        ds.push_row(&[1.0.into(), 0u32.into()], 0).unwrap();
        ds.set_label(0, 1).unwrap();
        assert_eq!(ds.label(0), 1);
        assert!(ds.set_label(0, 2).is_err());
    }
}
