//! Materialized relations and the in-memory database.
//!
//! Since the columnar data plane landed, a [`Table`] is a single fully
//! materialized [`Batch`]: a [`TableSchema`] plus one [`ColumnVec`]
//! per column. Streaming operators exchange bounded batches; a table
//! is what the stream collects into at pipeline breakers (joins'
//! build sides, group-by, sort) and at the edges of the distributed
//! runtime, where whole intermediate relations cross subject
//! boundaries. Row-oriented access survives only as an explicit compat
//! layer ([`Table::from_rows`] / [`Table::to_rows`]) for loaders and
//! tests.

use crate::batch::{Batch, ColumnVec, TableSchema};
use mpq_algebra::{AttrId, Catalog, RelId, Value};
use std::collections::HashMap;

/// A materialized relation: ordered columns (attribute ids, possibly
/// repeated for multi-aggregate outputs) and one column vector per
/// column.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    schema: TableSchema,
    cols: Vec<ColumnVec>,
}

impl Table {
    /// Empty table with the given columns.
    pub fn new(attrs: Vec<AttrId>) -> Table {
        let schema = TableSchema::new(attrs);
        let cols = (0..schema.len()).map(|_| ColumnVec::new()).collect();
        Table { schema, cols }
    }

    /// Table from value rows (compat layer; loaders and tests).
    pub fn from_rows(attrs: Vec<AttrId>, rows: Vec<Vec<Value>>) -> Table {
        Batch::from_rows(TableSchema::new(attrs), rows).into()
    }

    /// Table from one materialized batch.
    pub fn from_batch(batch: Batch) -> Table {
        batch.into()
    }

    /// Concatenate a stream's batches into one table. Every batch must
    /// carry `schema`.
    pub fn from_batches(schema: TableSchema, batches: impl IntoIterator<Item = Batch>) -> Table {
        let mut cols: Vec<ColumnVec> = (0..schema.len()).map(|_| ColumnVec::new()).collect();
        for batch in batches {
            debug_assert_eq!(batch.schema(), &schema, "batch schema mismatch");
            for (acc, col) in cols.iter_mut().zip(batch.into_columns()) {
                acc.append(col);
            }
        }
        Table { schema, cols }
    }

    /// Materialize as value rows (compat layer; prefer the columnar
    /// accessors on hot paths).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }

    /// The schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Output column attributes in order.
    pub fn attrs(&self) -> &[AttrId] {
        self.schema.attrs()
    }

    /// All columns in order.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.cols
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.cols[i]
    }

    /// Index of the first column carrying `attr`.
    pub fn col_index(&self, attr: AttrId) -> Option<usize> {
        self.schema.col_index(attr)
    }

    /// Cell at (`col`, `row`) as a logical value.
    pub fn value(&self, col: usize, row: usize) -> Value {
        self.cols[col].get(row)
    }

    /// Row `i` as logical values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// Append one row (compat layer; loaders, codecs, tests).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(v);
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, ColumnVec::len)
    }

    /// `true` when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stream the table as batches of at most `batch_rows` rows. An
    /// empty table yields no batches (streams carry the schema
    /// separately).
    pub fn batches(&self, batch_rows: usize) -> impl Iterator<Item = Batch> + '_ {
        let n = self.len();
        let step = batch_rows.max(1);
        (0..n.div_ceil(step)).map(move |k| {
            let s = k * step;
            self.slice(s..(s + step).min(n))
        })
    }

    /// Copy `range` out as a batch (the unit the streaming engine
    /// pulls when re-scanning a materialized table).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Batch {
        Batch::new(
            self.schema.clone(),
            self.cols.iter().map(|c| c.slice(range.clone())).collect(),
        )
    }

    /// Total payload bytes (drives the network-cost accounting in the
    /// distributed simulator).
    pub fn byte_size(&self) -> usize {
        self.cols.iter().map(ColumnVec::byte_size).sum()
    }

    /// Render as an aligned text table (examples and debugging).
    pub fn display(&self, catalog: &Catalog) -> String {
        let headers: Vec<String> = self
            .attrs()
            .iter()
            .map(|a| catalog.attr_name(*a).to_string())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = (0..self.len())
            .map(|i| self.row(i).iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl From<Batch> for Table {
    fn from(batch: Batch) -> Table {
        let schema = batch.schema().clone();
        let cols = batch.into_columns();
        Table { schema, cols }
    }
}

/// An in-memory database: one table per base relation.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: HashMap<RelId, Table>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a table for `rel`. The table's columns must match the
    /// relation's declared columns (order included).
    pub fn insert(&mut self, rel: RelId, table: Table) {
        self.tables.insert(rel, table);
    }

    /// Fetch the table of `rel`.
    pub fn table(&self, rel: RelId) -> Option<&Table> {
        self.tables.get(&rel)
    }

    /// Build a table for a relation from value rows, using the
    /// catalog's column order.
    pub fn load(&mut self, catalog: &Catalog, rel_name: &str, rows: Vec<Vec<Value>>) {
        let rel = catalog.relation(rel_name).expect("known relation");
        let cols = rel.attrs();
        for r in &rows {
            assert_eq!(r.len(), cols.len(), "row arity mismatch for {rel_name}");
        }
        self.insert(rel.rel, Table::from_rows(cols, rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_algebra::Catalog;

    #[test]
    fn load_and_lookup() {
        let cat = Catalog::paper_running_example();
        let mut db = Database::new();
        db.load(
            &cat,
            "Ins",
            vec![
                vec![Value::str("alice"), Value::Num(120.0)],
                vec![Value::str("bob"), Value::Num(80.0)],
            ],
        );
        let rel = cat.relation("Ins").unwrap().rel;
        let t = db.table(rel).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.col_index(cat.attr("P").unwrap()), Some(1));
        assert!(t.byte_size() > 0);
        // The numeric column densified on load.
        assert!(t.column(1).as_nums().is_some());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let cat = Catalog::paper_running_example();
        let mut db = Database::new();
        db.load(&cat, "Ins", vec![vec![Value::Num(1.0)]]);
    }

    #[test]
    fn display_renders_headers() {
        let cat = Catalog::paper_running_example();
        let mut db = Database::new();
        db.load(
            &cat,
            "Ins",
            vec![vec![Value::str("alice"), Value::Num(120.0)]],
        );
        let rel = cat.relation("Ins").unwrap().rel;
        let text = db.table(rel).unwrap().display(&cat);
        assert!(text.contains('C') && text.contains('P'));
        assert!(text.contains("alice"));
    }

    #[test]
    fn batches_cover_all_rows_and_round_trip() {
        let attrs = vec![AttrId(0), AttrId(1)];
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::str(&format!("r{i}"))])
            .collect();
        let t = Table::from_rows(attrs.clone(), rows.clone());
        for batch_rows in [1, 3, 10, 100] {
            let batches: Vec<Batch> = t.batches(batch_rows).collect();
            assert!(batches.iter().all(|b| b.num_rows() <= batch_rows.max(1)));
            let rebuilt = Table::from_batches(t.schema().clone(), batches);
            assert_eq!(rebuilt, t, "batch_rows = {batch_rows}");
        }
        assert_eq!(t.to_rows(), rows);
        // byte_size matches the row-wise accounting.
        let row_bytes: usize = rows
            .iter()
            .map(|r| r.iter().map(Value::width).sum::<usize>())
            .sum();
        assert_eq!(t.byte_size(), row_bytes);
    }

    #[test]
    fn empty_table_streams_no_batches() {
        let t = Table::new(vec![AttrId(0)]);
        assert_eq!(t.batches(4).count(), 0);
    }
}
