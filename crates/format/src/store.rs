//! Functional table storage: real bytes in per-device memories, addressed
//! through a layout + block-circulant placement + region plan.
//!
//! This is the value-carrying half of the unified format: the engines read
//! and write actual row bytes here, while accounting the corresponding
//! memory traffic against the timing simulator separately.

use std::ops::Range;

use pushtap_pim::DeviceArray;

use crate::circulant::Placement;
use crate::layout::TableLayout;
use crate::region::RegionPlan;

/// Identifies a stored row version: the original in the data region or a
/// version in a delta arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowSlot {
    /// Row `row` of the data region.
    Data {
        /// Row index.
        row: u64,
    },
    /// Delta slot `idx` of rotation arena `rotation`.
    Delta {
        /// Rotation arena (must equal the origin row's rotation).
        rotation: u32,
        /// Index within the arena.
        idx: u64,
    },
}

/// A row version's resolved placement: the circulant rotation of its
/// device slots and its row index within the data or delta region.
#[derive(Debug, Clone, Copy)]
struct Located {
    rotation: u32,
    delta: bool,
    index: u64,
}

impl Located {
    /// The fragment walk shared by every functional read and write: for
    /// each fragment of column `col`, in column-byte order, the physical
    /// device holding it, the device-local byte offset, and the column
    /// bytes it carries.
    fn pieces<'a>(
        self,
        layout: &'a TableLayout,
        region: &'a RegionPlan,
        col: u32,
    ) -> impl Iterator<Item = (u32, usize, Range<usize>)> + 'a {
        let devices = layout.devices();
        layout.fragments(col).iter().map(move |f| {
            let slice = region.parts()[f.part as usize].slice_offset(self.delta, self.index);
            let offset = slice + f.offset as u64;
            let first = f.col_byte as usize;
            (
                (f.device + self.rotation) % devices,
                offset as usize,
                first..first + f.len as usize,
            )
        })
    }
}

/// A table instance stored in the unified format.
#[derive(Debug, Clone)]
pub struct TableStore {
    layout: TableLayout,
    placement: Placement,
    region: RegionPlan,
    mem: DeviceArray,
}

impl TableStore {
    /// Creates storage for `n_rows` data rows plus `delta_rows` of delta
    /// capacity, with `block_rows`-row circulant blocks.
    pub fn new(layout: TableLayout, block_rows: u32, n_rows: u64, delta_rows: u64) -> TableStore {
        let devices = layout.devices();
        let region = RegionPlan::new(&layout, n_rows, delta_rows);
        TableStore {
            placement: Placement::new(devices, block_rows),
            region,
            mem: DeviceArray::new(devices),
            layout,
        }
    }

    /// The layout.
    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    /// The circulant placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The region plan.
    pub fn region(&self) -> &RegionPlan {
        &self.region
    }

    /// The backing device memories.
    pub fn mem(&self) -> &DeviceArray {
        &self.mem
    }

    /// Resolves where a row version lives — its rotation (data rows rotate
    /// with their block, delta slots carry their arena's, §5.1) and its
    /// region row index — once for all the fragments walked through it.
    ///
    /// # Panics
    ///
    /// Panics if the row or delta slot is out of range.
    fn locate(&self, slot: RowSlot) -> Located {
        let (rotation, delta, index) = match slot {
            RowSlot::Data { row } => {
                assert!(row < self.region.n_rows(), "row {row} out of range");
                (self.placement.rotation_of(row), false, row)
            }
            RowSlot::Delta { rotation, idx } => {
                let arena_rows = self.region.arena_rows();
                assert!(
                    rotation < self.region.arenas() && idx < arena_rows,
                    "delta slot ({rotation}, {idx}) out of range"
                );
                (rotation, true, rotation as u64 * arena_rows + idx)
            }
        };
        Located {
            rotation,
            delta,
            index,
        }
    }

    /// The rotation arena a new version of data row `row` must use.
    pub fn arena_for_row(&self, row: u64) -> u32 {
        self.placement.rotation_of(row)
    }

    /// Writes all column values of a row version.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the schema (count or widths).
    pub fn write_row(&mut self, slot: RowSlot, values: &[Vec<u8>]) {
        let schema = self.layout.schema();
        assert_eq!(values.len(), schema.len(), "column count mismatch");
        for (col, v) in values.iter().enumerate() {
            assert_eq!(
                v.len() as u32,
                schema.column(col as u32).width,
                "width mismatch for column {col}"
            );
        }
        let at = self.locate(slot);
        for (col, v) in values.iter().enumerate() {
            self.scatter(at, col as u32, v);
        }
    }

    /// Reads all column values of a row version.
    pub fn read_row(&self, slot: RowSlot) -> Vec<Vec<u8>> {
        let at = self.locate(slot);
        self.layout
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(col, c)| {
                let mut v = vec![0u8; c.width as usize];
                self.gather(at, col as u32, &mut v);
                v
            })
            .collect()
    }

    /// Writes one column value of a row version.
    ///
    /// # Panics
    ///
    /// Panics if the value width does not match the column.
    pub fn write_value(&mut self, slot: RowSlot, col: u32, value: &[u8]) {
        let width = self.layout.schema().column(col).width;
        assert_eq!(value.len() as u32, width, "width mismatch for column {col}");
        let at = self.locate(slot);
        self.scatter(at, col, value);
    }

    /// Reads one column value of a row version.
    pub fn read_value(&self, slot: RowSlot, col: u32) -> Vec<u8> {
        let mut out = vec![0u8; self.layout.schema().column(col).width as usize];
        self.gather(self.locate(slot), col, &mut out);
        out
    }

    /// Reads one column of a row version as a little-endian unsigned
    /// integer — its first (up to) eight bytes, zero-extended. Equal to
    /// `dec_u64(&read_value(slot, col))`, without allocating.
    pub fn read_u64(&self, slot: RowSlot, col: u32) -> u64 {
        let mut le = [0u8; 8];
        let n = (self.layout.schema().column(col).width as usize).min(le.len());
        self.gather(self.locate(slot), col, &mut le[..n]);
        u64::from_le_bytes(le)
    }

    /// Copies the leading `out.len()` bytes of column `col` of the
    /// version at `at` out of the devices.
    fn gather(&self, at: Located, col: u32, out: &mut [u8]) {
        for (device, offset, bytes) in at.pieces(&self.layout, &self.region, col) {
            if bytes.start >= out.len() {
                break;
            }
            let end = bytes.end.min(out.len());
            self.mem
                .device(device)
                .read_into(offset, &mut out[bytes.start..end]);
        }
    }

    /// Copies `value` into column `col` of the version at `at`, walking
    /// the fragments in place beside the mutably borrowed devices.
    fn scatter(&mut self, at: Located, col: u32, value: &[u8]) {
        let TableStore {
            layout,
            region,
            mem,
            ..
        } = self;
        for (device, offset, bytes) in at.pieces(layout, region, col) {
            mem.device_mut(device).write(offset, &value[bytes]);
        }
    }

    /// Copies a delta version back over its origin data row (the
    /// defragmentation data movement, §5.3). The copy is device-local on
    /// every device because the version shares its origin's rotation.
    ///
    /// # Panics
    ///
    /// Panics if the delta slot's rotation differs from the origin row's.
    pub fn copy_back(&mut self, origin_row: u64, rotation: u32, idx: u64) {
        assert_eq!(
            self.placement.rotation_of(origin_row),
            rotation,
            "delta rotation must match origin row rotation"
        );
        for (part, pr) in self.region.parts().to_vec().into_iter().enumerate() {
            let src = self.region.delta_offset(part as u32, rotation, idx);
            let dst = self.region.data_offset(part as u32, origin_row);
            for dev in 0..self.layout.devices() {
                self.mem
                    .device_mut(dev)
                    .copy_within(src as usize, dst as usize, pr.width as usize);
            }
        }
    }

    /// Raw bytes of key column `col` for data row `row` as stored on its
    /// device — what the owning PIM unit sees during a scan.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not a single-fragment (key) column.
    pub fn key_bytes_on_device(&self, col: u32, row: u64) -> (u32, Vec<u8>) {
        let (_, slot) = self
            .layout
            .key_location(col)
            .expect("column is not device-local");
        (
            self.placement.device_of(slot, row),
            self.read_value(RowSlot::Data { row }, col),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binpack::compact_layout;
    use crate::schema::paper_example_schema;

    fn store() -> TableStore {
        let layout = compact_layout(&paper_example_schema(), 4, 0.75).unwrap();
        TableStore::new(layout, 8, 64, 16)
    }

    fn row_values(seed: u8) -> Vec<Vec<u8>> {
        // id(2), d_id(2), w_id(4), zip(9), state(2), credit(2)
        vec![
            vec![seed, 1],
            vec![seed, 2],
            vec![seed, 3, 3, 3],
            vec![seed, 4, 4, 4, 4, 4, 4, 4, 4],
            vec![seed, 5],
            vec![seed, 6],
        ]
    }

    #[test]
    fn row_round_trip_across_blocks() {
        let mut s = store();
        for row in [0u64, 7, 8, 15, 16, 63] {
            let vals = row_values(row as u8);
            s.write_row(RowSlot::Data { row }, &vals);
            assert_eq!(s.read_row(RowSlot::Data { row }), vals, "row {row}");
        }
    }

    #[test]
    fn single_value_update() {
        let mut s = store();
        s.write_row(RowSlot::Data { row: 3 }, &row_values(9));
        s.write_value(RowSlot::Data { row: 3 }, 2, &[7, 7, 7, 7]);
        let vals = s.read_row(RowSlot::Data { row: 3 });
        assert_eq!(vals[2], vec![7, 7, 7, 7]);
        assert_eq!(vals[0], vec![9, 1]); // untouched
    }

    #[test]
    fn delta_version_round_trip() {
        let mut s = store();
        let row = 10u64; // block 1 → rotation 1
        let rot = s.arena_for_row(row);
        assert_eq!(rot, 1);
        let slot = RowSlot::Delta {
            rotation: rot,
            idx: 2,
        };
        let vals = row_values(42);
        s.write_row(slot, &vals);
        assert_eq!(s.read_row(slot), vals);
    }

    #[test]
    fn copy_back_applies_new_version() {
        let mut s = store();
        let row = 10u64;
        let rot = s.arena_for_row(row);
        s.write_row(RowSlot::Data { row }, &row_values(1));
        let slot = RowSlot::Delta {
            rotation: rot,
            idx: 0,
        };
        s.write_row(slot, &row_values(2));
        s.copy_back(row, rot, 0);
        assert_eq!(s.read_row(RowSlot::Data { row }), row_values(2));
    }

    #[test]
    #[should_panic(expected = "rotation must match")]
    fn copy_back_rejects_wrong_rotation() {
        let mut s = store();
        s.copy_back(10, 0, 0); // row 10 has rotation 1
    }

    #[test]
    fn rotation_moves_key_column_across_devices() {
        let mut s = store();
        let id = s.layout().schema().index_of("id").unwrap();
        s.write_row(RowSlot::Data { row: 0 }, &row_values(1));
        s.write_row(RowSlot::Data { row: 8 }, &row_values(2)); // next block
        let (dev0, _) = s.key_bytes_on_device(id, 0);
        let (dev8, _) = s.key_bytes_on_device(id, 8);
        assert_ne!(dev0, dev8, "circulant placement must rotate devices");
    }

    #[test]
    fn key_bytes_match_written_value() {
        let mut s = store();
        let w_id = s.layout().schema().index_of("w_id").unwrap();
        s.write_row(RowSlot::Data { row: 5 }, &row_values(7));
        let (_, bytes) = s.key_bytes_on_device(w_id, 5);
        assert_eq!(bytes, vec![7, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_rejected() {
        let mut s = store();
        s.write_value(RowSlot::Data { row: 0 }, 0, &[1, 2, 3]);
    }
}
