//! Cell-by-cell comparison of a result against its plaintext reference.

use mpq_exec::Table;

/// `Ok` when `got` has the reference's shape and every cell matches:
/// numbers within a relative 1e-6, everything else by SQL equality
/// (two NULLs match).
pub fn matches(reference: &Table, got: &Table) -> Result<(), String> {
    if reference.attrs().len() != got.attrs().len() {
        return Err(format!(
            "{} columns, reference has {}",
            got.attrs().len(),
            reference.attrs().len()
        ));
    }
    if reference.len() != got.len() {
        return Err(format!(
            "{} rows, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (a, b)) in reference.to_rows().iter().zip(&got.to_rows()).enumerate() {
        for (x, y) in a.iter().zip(b) {
            let ok = match (x.as_num(), y.as_num()) {
                (Some(p), Some(q)) => (p - q).abs() <= 1e-6 * p.abs().max(1.0),
                _ => x.sql_eq(y) || (x.is_null() && y.is_null()),
            };
            if !ok {
                return Err(format!("row {i}: {y:?}, reference {x:?}"));
            }
        }
    }
    Ok(())
}

/// Execute `plan` centrally in plaintext: the reference every
/// distributed answer is checked against.
pub fn plaintext(
    catalog: &mpq_algebra::Catalog,
    db: &mpq_exec::Database,
    plan: &mpq_algebra::QueryPlan,
) -> Result<Table, String> {
    let ring = mpq_crypto::keyring::KeyRing::new();
    let schemes = mpq_exec::SchemePlan::default();
    let koa = std::collections::HashMap::new();
    let ctx = mpq_exec::ExecCtx::new(catalog, db, &ring, &schemes, &koa);
    mpq_exec::execute(plan, &ctx).map_err(|e| e.to_string())
}
