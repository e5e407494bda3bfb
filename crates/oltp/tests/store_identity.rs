//! Read-path identity of the unified-format store on the TPC-C tables.
//!
//! The store offers three functional reads of one row version — the
//! whole row, one column, and one column as an integer. They share one
//! fragment walk, and they must agree on every column of every table
//! layout the engine builds, for data rows and delta versions alike:
//!
//! - `read_row(slot)[c] == read_value(slot, c)`;
//! - `read_u64(slot, c) == dec_u64(&read_value(slot, c))`.

use std::collections::BTreeSet;

use proptest::prelude::*;
use pushtap_chbench::{dec_u64, Table, TxnGen, ALL_TABLES};
use pushtap_format::{RowSlot, TableStore};
use pushtap_oltp::{DbConfig, TpccDb};
use pushtap_pim::{MemSystem, Ps};

/// The small TPC-C database after a burst of transactions, so the hot
/// tables carry delta versions as well as data rows.
fn populated() -> TpccDb {
    let mut mem = MemSystem::dimm();
    let mut db = TpccDb::build(&DbConfig::small(), &mem).expect("build");
    let mut tg = TxnGen::new(
        11,
        db.table(Table::Warehouse).n_rows(),
        db.table(Table::Customer).n_rows(),
        db.table(Table::Item).n_rows(),
        db.table(Table::Stock).n_rows(),
    );
    let mut now = Ps::ZERO;
    for txn in tg.batch(80) {
        now = db.execute(&txn, &mut mem, now).expect("commit").end;
    }
    db
}

thread_local! {
    static DB: TpccDb = populated();
}

/// Checks both identities on every column of the version at `slot`.
fn check_identities(store: &TableStore, slot: RowSlot) -> Result<(), TestCaseError> {
    let row = store.read_row(slot);
    prop_assert_eq!(row.len(), store.layout().schema().len());
    for (c, whole) in row.iter().enumerate() {
        let c = c as u32;
        let value = store.read_value(slot, c);
        prop_assert_eq!(whole, &value, "read_row vs read_value, column {}", c);
        prop_assert_eq!(
            store.read_u64(slot, c),
            dec_u64(&value),
            "read_u64 vs dec_u64, column {}",
            c
        );
    }
    Ok(())
}

/// The small configuration's layouts exercise both edge cases of the
/// walk: a column wider than the eight bytes `read_u64` decodes, and a
/// column whose fragments sit on more than one device.
#[test]
fn small_config_covers_wide_and_straddling_columns() {
    DB.with(|db| {
        let (mut wide, mut straddling) = (false, false);
        for table in ALL_TABLES {
            let layout = db.table(table).layout();
            for (c, column) in layout.schema().columns().iter().enumerate() {
                wide |= column.width > 8;
                let devices: BTreeSet<u32> = layout
                    .fragments(c as u32)
                    .iter()
                    .map(|f| f.device)
                    .collect();
                straddling |= devices.len() > 1;
            }
        }
        assert!(wide, "no column wider than 8 bytes");
        assert!(straddling, "no column split across devices");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's own bytes: the newest version of a random row of any
    /// table (a delta version wherever the burst updated the row) and its
    /// data-region origin.
    #[test]
    fn populated_rows_read_identically(table in 0usize..ALL_TABLES.len(), pick in any::<u64>()) {
        DB.with(|db| {
            let t = db.table(ALL_TABLES[table]);
            let row = pick % t.n_rows();
            check_identities(t.store(), t.chains().newest_slot(row))?;
            check_identities(t.store(), RowSlot::Data { row })
        })?;
    }

    /// Random bytes written to a random data row or delta slot of a
    /// fresh store with a TPC-C table's layout and region plan.
    #[test]
    fn random_versions_read_identically(
        table in 0usize..ALL_TABLES.len(),
        pick in any::<u64>(),
        delta in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut store = DB.with(|db| {
            let s = db.table(ALL_TABLES[table]).store();
            TableStore::new(
                s.layout().clone(),
                s.placement().block_rows(),
                s.region().n_rows(),
                s.region().delta_rows(),
            )
        });
        let region = store.region();
        let slot = if delta {
            let arenas = region.arenas() as u64;
            RowSlot::Delta {
                rotation: (pick % arenas) as u32,
                idx: (pick / arenas) % region.arena_rows(),
            }
        } else {
            RowSlot::Data { row: pick % region.n_rows() }
        };
        let mut state = seed;
        let values: Vec<Vec<u8>> = store
            .layout()
            .schema()
            .columns()
            .iter()
            .map(|c| {
                (0..c.width)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        (state >> 56) as u8
                    })
                    .collect()
            })
            .collect();
        store.write_row(slot, &values);
        prop_assert_eq!(store.read_row(slot), values);
        check_identities(&store, slot)?;
    }
}
