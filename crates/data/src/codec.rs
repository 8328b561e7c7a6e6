//! Binary dataset snapshots.
//!
//! A generated city is saved once and loaded at every start of `skysr-d
//! FILE` or `skysr-cli replay FILE`, so a load is one read of fixed-width
//! little-endian columns rather than a parse of text. A snapshot stores
//! only what generation produced: the loader still packs the CSR through
//! [`GraphBuilder::build`] and still calls [`PoiTable::finalize`], so a
//! loaded city is arc for arc the one that was written, and nothing
//! derived (no landmark, no index) rides in the file.
//!
//! Each undirected edge is stored once, lower endpoint first, in the order
//! a walk over the vertices' adjacency lists meets it: the CSR holds both
//! arcs of every edge, and the load packs them again. The header's counts
//! are the city's fingerprint and fix every section's length, so the
//! reader checks the input's length against them before it allocates
//! anything else. With C categories, V vertices, E edges, P PoIs, T PoI
//! tags and N name bytes:
//!
//! | section | type | bytes | check on read |
//! |---|---|---|---|
//! | magic | `SKYSR-DS` | 8 | equal (an old text file fails here) |
//! | format version | u32 | 4 | equals 2 (version 1 was line-oriented text) |
//! | counts C, V, E, P, T, N | u64 each | 48 | V, C and 2E fit 32-bit ids; the length they imply is the input's |
//! | name lengths: the city's, then each category's | u32 | 4(C + 1) | sum to N |
//! | names | UTF-8 | N | each is UTF-8; category names distinct |
//! | category parents | u64, `u64::MAX` for a root | 8C | listed before the child |
//! | latitudes, then longitudes | f64 | 8V each | finite |
//! | edge tails, then heads | u32 | 4E each | below V |
//! | edge weights | f64 | 8E | finite and non-negative |
//! | PoI vertices | u32 | 4P | below V |
//! | PoI tag counts | u32 | 4P | sum to T |
//! | PoI tags, each PoI's categories in turn | u32 | 4T | below C |
//! | checksum | u64 | 8 | equals the sum of every byte before it |
//!
//! The checksum is [`FxHasher`]'s word loop over everything before it.
//! Each step of that loop is a bijection in both the running state and the
//! word, so every single-bit flip changes the sum. A snapshot that fails any
//! check is a [`CodecError::Parse`], never a panic.

use std::collections::HashSet;
use std::hash::Hasher;
use std::io::{Read, Write};
use std::path::Path;

use skysr_category::{CategoryForest, CategoryId, ForestBuilder};
use skysr_core::PoiTable;
use skysr_graph::fxhash::FxHasher;
use skysr_graph::{GeoPoint, GraphBuilder, VertexId};

use crate::dataset::Dataset;

/// The first eight bytes of every snapshot.
const MAGIC: [u8; 8] = *b"SKYSR-DS";

/// The snapshot format's version.
const VERSION: u32 = 2;

/// Magic, version and the six counts.
const HEADER_LEN: usize = MAGIC.len() + 4 + 6 * 8;

/// The parent a root category is stored with.
const ROOT: u64 = u64::MAX;

/// Codec errors.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed input, or a dataset the snapshot cannot store.
    Parse(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> CodecError {
    CodecError::Parse(msg.into())
}

/// The header's counts: the city's fingerprint.
#[derive(Clone, Copy, Debug)]
struct Counts {
    categories: u64,
    vertices: u64,
    edges: u64,
    pois: u64,
    tags: u64,
    name_bytes: u64,
}

impl Counts {
    fn to_le_bytes(self) -> [[u8; 8]; 6] {
        [self.categories, self.vertices, self.edges, self.pois, self.tags, self.name_bytes]
            .map(u64::to_le_bytes)
    }

    /// The sections after the header in file order: what each holds, its
    /// bytes per entry and its entries.
    fn sections(self) -> [(&'static str, u64, u64); 12] {
        let Counts { categories: c, vertices: v, edges: e, pois: p, tags: t, name_bytes: n } = self;
        [
            ("name lengths", 4, c.saturating_add(1)),
            ("names", 1, n),
            ("parents", 8, c),
            ("latitudes", 8, v),
            ("longitudes", 8, v),
            ("edge tails", 4, e),
            ("edge heads", 4, e),
            ("edge weights", 8, e),
            ("poi vertices", 4, p),
            ("poi tag counts", 4, p),
            ("poi tags", 4, t),
            ("checksum", 8, 1),
        ]
    }

    /// The length of the snapshot these counts describe, or `None` when it
    /// exceeds the address space.
    fn snapshot_len(self) -> Option<usize> {
        let len = self.sections().iter().try_fold(HEADER_LEN as u64, |len, &(_, width, n)| {
            len.checked_add(width.checked_mul(n)?)
        })?;
        usize::try_from(len).ok()
    }
}

/// The checksum of `body`: one `write` of [`FxHasher`].
fn checksum(body: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(body);
    h.finish()
}

/// Serialises `dataset` to a writer as one snapshot. A directed graph, a
/// self-loop and a vertex without coordinates are refused with a
/// [`CodecError::Parse`]; no generator makes any of them.
pub fn write_dataset<W: Write>(dataset: &Dataset, mut w: W) -> Result<(), CodecError> {
    let (graph, forest, pois) = (&dataset.graph, &dataset.forest, &dataset.pois);
    if graph.is_directed() {
        return Err(parse_err("a snapshot stores undirected graphs only"));
    }
    let coords = graph
        .vertices()
        .map(|v| {
            graph
                .coords_of(v)
                .ok_or_else(|| parse_err(format!("vertex {} has no coordinates", v.0)))
        })
        .collect::<Result<Vec<GeoPoint>, _>>()?;
    let (mut tails, mut heads, mut weights) = (Vec::new(), Vec::new(), Vec::new());
    for u in graph.vertices() {
        for (v, c) in graph.neighbors(u) {
            if u.0 < v.0 {
                tails.push(u.0);
                heads.push(v.0);
                weights.push(c.get());
            }
        }
    }
    if tails.len() != graph.num_edges() {
        return Err(parse_err("a snapshot stores graphs without self-loops only"));
    }
    let names: Vec<&str> = std::iter::once(dataset.name.as_str())
        .chain(forest.categories().map(|c| forest.name(c)))
        .collect();
    let tag_lists: Vec<&[CategoryId]> =
        dataset.poi_vertices.iter().map(|&p| pois.categories_of(p)).collect();
    let counts = Counts {
        categories: forest.num_categories() as u64,
        vertices: coords.len() as u64,
        edges: tails.len() as u64,
        pois: tag_lists.len() as u64,
        tags: tag_lists.iter().map(|l| l.len() as u64).sum(),
        name_bytes: names.iter().map(|n| n.len() as u64).sum(),
    };

    let mut out = Vec::with_capacity(counts.snapshot_len().unwrap_or(0));
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend(counts.to_le_bytes().iter().flatten());
    for name in &names {
        let len = u32::try_from(name.len()).map_err(|_| parse_err("a name exceeds 4 GiB"))?;
        out.extend_from_slice(&len.to_le_bytes());
    }
    for name in &names {
        out.extend_from_slice(name.as_bytes());
    }
    for c in forest.categories() {
        let parent = forest.parent(c).map_or(ROOT, |p| u64::from(p.0));
        out.extend_from_slice(&parent.to_le_bytes());
    }
    out.extend(coords.iter().flat_map(|p| p.lat.to_le_bytes()));
    out.extend(coords.iter().flat_map(|p| p.lon.to_le_bytes()));
    out.extend(tails.iter().chain(&heads).flat_map(|x| x.to_le_bytes()));
    out.extend(weights.iter().flat_map(|x| x.to_le_bytes()));
    out.extend(dataset.poi_vertices.iter().flat_map(|v| v.0.to_le_bytes()));
    out.extend(tag_lists.iter().flat_map(|l| (l.len() as u32).to_le_bytes()));
    out.extend(tag_lists.iter().copied().flatten().flat_map(|c| c.0.to_le_bytes()));
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    w.write_all(&out)?;
    w.flush()?;
    Ok(())
}

/// Deserialises a snapshot from a reader. Every check of the module's
/// layout table runs before the city is built; a snapshot that fails one
/// is a [`CodecError::Parse`], never a panic.
pub fn read_dataset<R: Read>(mut r: R) -> Result<Dataset, CodecError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => parse_err("shorter than a snapshot header"),
        _ => CodecError::Io(e),
    })?;
    let mut head = Columns { rest: &header };
    if head.word()? != MAGIC {
        return Err(parse_err("not a skysr dataset snapshot (bad magic)"));
    }
    let version = u32::from_le_bytes(head.word()?);
    if version != VERSION {
        return Err(parse_err(format!("snapshot version {version}, expected {VERSION}")));
    }
    let mut count = || head.word().map(u64::from_le_bytes);
    let counts = Counts {
        categories: count()?,
        vertices: count()?,
        edges: count()?,
        pois: count()?,
        tags: count()?,
        name_bytes: count()?,
    };
    let fits_ids = |n: u64| n <= u64::from(u32::MAX);
    if !(fits_ids(counts.vertices)
        && fits_ids(counts.categories)
        && fits_ids(counts.edges.saturating_mul(2)))
    {
        return Err(parse_err(format!("{counts:?} overflow 32-bit ids")));
    }
    let len = counts
        .snapshot_len()
        .ok_or_else(|| parse_err(format!("{counts:?} describe more bytes than memory holds")))?;

    // The input is read up to one byte past the length the header implies,
    // so a buffer never outgrows the input, nor the input the header.
    let mut bytes = header.to_vec();
    r.take((len - HEADER_LEN) as u64 + 1).read_to_end(&mut bytes)?;
    if bytes.len() != len {
        let what = if bytes.len() > len { "more" } else { "fewer" };
        return Err(parse_err(format!("{what} bytes than the header's {len}")));
    }
    let (body, sum) = bytes.split_last_chunk().ok_or_else(|| parse_err("no checksum"))?;
    if u64::from_le_bytes(*sum) != checksum(body) {
        return Err(parse_err("checksum mismatch"));
    }

    let mut cols = Columns { rest: &body[HEADER_LEN..] };
    let (name, forest) = read_forest(&mut cols, counts)?;
    let graph = read_graph(&mut cols, counts)?;
    let (mut pois, poi_vertices) = read_pois(&mut cols, counts)?;
    // The input goes before the CSR is packed, so the two never peak
    // together.
    drop(bytes);
    let graph = graph.build();
    pois.finalize(&forest);
    Ok(Dataset { name, graph, forest, pois, poi_vertices, spec: None })
}

/// The unread columns of a snapshot whose length matched its header.
struct Columns<'a> {
    rest: &'a [u8],
}

impl<'a> Columns<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or_else(|| parse_err("a column runs past the end"))?;
        self.rest = rest;
        Ok(head)
    }

    fn word<const W: usize>(&mut self) -> Result<[u8; W], CodecError> {
        self.take(W)?.try_into().map_err(|_| parse_err("a column runs past the end"))
    }

    /// The next `n` fixed-width words, for `from_le_bytes` to decode.
    fn words<const W: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl Iterator<Item = [u8; W]> + Clone + 'a, CodecError> {
        Ok(self.take(n * W)?.as_chunks::<W>().0.iter().copied())
    }
}

/// The city name and the category forest.
fn read_forest(cols: &mut Columns, counts: Counts) -> Result<(String, CategoryForest), CodecError> {
    let ncat = counts.categories as usize;
    let lens = cols.words(ncat + 1)?.map(u32::from_le_bytes);
    if lens.clone().map(u64::from).sum::<u64>() != counts.name_bytes {
        return Err(parse_err("name lengths do not sum to the header's name bytes"));
    }
    let mut blob = Columns { rest: cols.take(counts.name_bytes as usize)? };
    let mut names = Vec::with_capacity(ncat + 1);
    for len in lens {
        let name = blob.take(len as usize)?;
        names.push(std::str::from_utf8(name).map_err(|_| parse_err("a name is not UTF-8"))?);
    }
    let mut fb = ForestBuilder::new();
    let mut seen = HashSet::with_capacity(ncat);
    let parents = cols.words(ncat)?.map(u64::from_le_bytes);
    for (i, (parent, &name)) in parents.zip(&names[1..]).enumerate() {
        if !seen.insert(name) {
            return Err(parse_err(format!("duplicate category name {name:?}")));
        }
        if parent == ROOT {
            fb.add_root(name);
        } else if parent < i as u64 {
            fb.add_child(CategoryId(parent as u32), name);
        } else {
            return Err(parse_err(format!("category {i}: parent {parent} not listed before it")));
        }
    }
    Ok((names[0].to_owned(), fb.build()))
}

/// The vertices and edges, not yet packed.
fn read_graph(cols: &mut Columns, counts: Counts) -> Result<GraphBuilder, CodecError> {
    let (nv, ne) = (counts.vertices as usize, counts.edges as usize);
    let mut gb = GraphBuilder::new();
    let (lats, lons) = (cols.words(nv)?, cols.words(nv)?);
    for (lat, lon) in lats.map(f64::from_le_bytes).zip(lons.map(f64::from_le_bytes)) {
        if !(lat.is_finite() && lon.is_finite()) {
            return Err(parse_err(format!("vertex {} at ({lat}, {lon})", gb.num_vertices())));
        }
        gb.add_vertex_at(GeoPoint::new(lat, lon));
    }
    let tails = cols.words(ne)?.map(u32::from_le_bytes);
    let heads = cols.words(ne)?.map(u32::from_le_bytes);
    let weights = cols.words(ne)?.map(f64::from_le_bytes);
    for ((from, to), weight) in tails.zip(heads).zip(weights) {
        if from as usize >= nv || to as usize >= nv {
            return Err(parse_err(format!("edge {from}-{to} outside {nv} vertices")));
        }
        if !(weight.is_finite() && weight >= 0.0) {
            return Err(parse_err(format!("edge {from}-{to} has weight {weight}")));
        }
        gb.add_edge(VertexId(from), VertexId(to), weight);
    }
    Ok(gb)
}

/// The PoI tags, not yet finalised, and the PoI vertices in file order.
fn read_pois(cols: &mut Columns, counts: Counts) -> Result<(PoiTable, Vec<VertexId>), CodecError> {
    let (nv, ncat, np) =
        (counts.vertices as usize, counts.categories as usize, counts.pois as usize);
    let vertices = cols.words(np)?.map(u32::from_le_bytes);
    let tag_counts = cols.words(np)?.map(u32::from_le_bytes);
    if tag_counts.clone().map(u64::from).sum::<u64>() != counts.tags {
        return Err(parse_err("PoI tag counts do not sum to the header's tags"));
    }
    let mut tags = cols.words(counts.tags as usize)?.map(u32::from_le_bytes);
    let mut pois = PoiTable::new(nv);
    let mut poi_vertices = Vec::with_capacity(np);
    for (v, n) in vertices.zip(tag_counts) {
        if v as usize >= nv {
            return Err(parse_err(format!("poi vertex {v} outside {nv} vertices")));
        }
        poi_vertices.push(VertexId(v));
        for c in tags.by_ref().take(n as usize) {
            if c as usize >= ncat {
                return Err(parse_err(format!("poi {v}: category {c} outside {ncat}")));
            }
            pois.add_poi(VertexId(v), CategoryId(c));
        }
    }
    Ok((pois, poi_vertices))
}

/// Saves to a file path.
pub fn save_dataset(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), CodecError> {
    write_dataset(dataset, std::fs::File::create(path)?)
}

/// Loads from a file path.
pub fn load_dataset(path: impl AsRef<Path>) -> Result<Dataset, CodecError> {
    read_dataset(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use super::*;
    use crate::dataset::{DatasetSpec, Preset};

    thread_local! {
        static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    }

    /// Counts the bytes each thread allocates, then defers to the system
    /// allocator, so a test can bound what one read allocates while other
    /// tests run beside it.
    struct Counting;

    // SAFETY: both methods forward their arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter is a
    // thread-local statistic without a destructor.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
            // SAFETY: the caller's guarantees for `layout` carry over.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Two categories, two vertices, one edge and one PoI.
    fn tiny() -> Dataset {
        let mut fb = ForestBuilder::new();
        let food = fb.add_root("Food");
        let soba = fb.add_child(food, "Soba");
        let forest = fb.build();
        let mut gb = GraphBuilder::new();
        let a = gb.add_vertex_at(GeoPoint::new(35.68, 139.77));
        let b = gb.add_vertex_at(GeoPoint::new(35.69, 139.77));
        gb.add_edge(a, b, 1.5);
        let graph = gb.build();
        let mut pois = PoiTable::new(graph.num_vertices());
        pois.add_poi(b, soba);
        pois.finalize(&forest);
        Dataset { name: "tiny".into(), graph, forest, pois, poi_vertices: vec![b], spec: None }
    }

    fn snapshot(d: &Dataset) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_dataset(d, &mut bytes).unwrap();
        bytes
    }

    /// The tiny city's snapshot with `patch` applied to everything before
    /// the checksum, and the checksum recomputed, so that only the
    /// validation a patch targets can reject it.
    fn resealed(patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut bytes = snapshot(&tiny());
        bytes.truncate(bytes.len() - 8);
        patch(&mut bytes);
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Byte offset of entry `index` of the tiny snapshot's section `name`.
    fn offset(name: &str, index: usize) -> usize {
        let counts =
            Counts { categories: 2, vertices: 2, edges: 1, pois: 1, tags: 1, name_bytes: 12 };
        let mut at = HEADER_LEN;
        for (section, width, n) in counts.sections() {
            if section == name {
                return at + index * width as usize;
            }
            at += (width * n) as usize;
        }
        panic!("no section {name:?}")
    }

    /// Overwrites entry `index` of section `name` with `value`.
    fn set(name: &str, index: usize, value: &[u8]) -> impl FnOnce(&mut Vec<u8>) {
        let (at, value) = (offset(name, index), value.to_vec());
        move |bytes| bytes[at..at + value.len()].copy_from_slice(&value)
    }

    /// Overwrites header count `index` (C, V, E, P, T, N) with `value`.
    fn set_count(index: usize, value: u64) -> impl FnOnce(&mut Vec<u8>) {
        move |bytes| {
            let at = MAGIC.len() + 4 + 8 * index;
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
    }

    fn assert_parse_error(bytes: &[u8], what: &str) {
        match read_dataset(bytes) {
            Err(CodecError::Parse(_)) => {}
            other => panic!("{what}: expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(4).generate();
        let d2 = read_dataset(&snapshot(&d)[..]).unwrap();
        assert_eq!(d.name, d2.name);
        assert_eq!(d.graph.num_vertices(), d2.graph.num_vertices());
        assert_eq!(d.graph.num_edges(), d2.graph.num_edges());
        assert_eq!(d.forest.num_categories(), d2.forest.num_categories());
        assert_eq!(d.poi_vertices, d2.poi_vertices);
        for &p in &d.poi_vertices {
            assert_eq!(d.pois.categories_of(p), d2.pois.categories_of(p));
        }
    }

    #[test]
    fn roundtrip_preserves_query_results() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(4).generate();
        let d2 = read_dataset(&snapshot(&d)[..]).unwrap();
        let w = crate::workload::WorkloadSpec::new(2).queries(3).generate(&d);
        let (ctx1, ctx2) = (d.context(), d2.context());
        let mut b1 = skysr_core::bssr::Bssr::new(&ctx1);
        let mut b2 = skysr_core::bssr::Bssr::new(&ctx2);
        for q in &w.queries {
            assert_eq!(b1.run(q).unwrap().routes, b2.run(q).unwrap().routes);
        }
    }

    #[test]
    fn tiny_template_parses() {
        let bytes = resealed(|_| {});
        assert_eq!(bytes, snapshot(&tiny()));
        assert_eq!(offset("checksum", 0), bytes.len() - 8, "the test layout is the writer's");
        let d = read_dataset(&bytes[..]).unwrap();
        assert_eq!(d.name, "tiny");
        assert_eq!(d.forest.parent(CategoryId(1)), Some(CategoryId(0)));
        assert_eq!(d.graph.num_vertices(), 2);
        assert_eq!(d.pois.categories_of(VertexId(1)), &[CategoryId(1)]);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_parse_error(b"nope\n", "a short file");
        let text = b"skysr-dataset v1\nname\ttiny\nforest\t2\nc\t-1\tFood\nc\t0\tSoba\n\
                     graph\t2\t1\nv\t-\nv\t-\ne\t0\t1\t1.5\npois\t1\np\t1\t1\nend\n";
        assert_parse_error(text, "a text dataset");
        assert_parse_error(&resealed(|b| b[0] = b's'), "a changed magic");
        assert_parse_error(&resealed(|b| b[MAGIC.len()] = 1), "version 1");
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = snapshot(&tiny());
        for len in 0..bytes.len() {
            assert_parse_error(&bytes[..len], &format!("the first {len} bytes"));
        }
    }

    #[test]
    fn every_bit_flip_rejected() {
        let bytes = snapshot(&tiny());
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_parse_error(&flipped, &format!("bit {bit} flipped"));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = snapshot(&tiny());
        bytes.push(0);
        assert_parse_error(&bytes, "a byte after the checksum");
        assert_parse_error(&resealed(|b| b.push(0)), "a byte before the checksum");
    }

    #[test]
    fn edge_endpoint_out_of_range_rejected() {
        for (section, v) in [("edge tails", 2u32), ("edge heads", 2), ("edge tails", 7)] {
            let bytes = resealed(set(section, 0, &v.to_le_bytes()));
            assert_parse_error(&bytes, &format!("{section} {v}"));
        }
    }

    #[test]
    fn nan_or_negative_edge_weight_rejected() {
        for w in [f64::NAN, -2.0, f64::INFINITY, f64::NEG_INFINITY] {
            let bytes = resealed(set("edge weights", 0, &w.to_le_bytes()));
            assert_parse_error(&bytes, &format!("weight {w}"));
        }
    }

    #[test]
    fn non_finite_coordinate_rejected() {
        for section in ["latitudes", "longitudes"] {
            for x in [f64::NAN, f64::INFINITY] {
                let bytes = resealed(set(section, 1, &x.to_le_bytes()));
                assert_parse_error(&bytes, &format!("{section} {x}"));
            }
        }
    }

    #[test]
    fn category_parent_not_listed_before_rejected() {
        // Category 1 as its own parent, and a parent that does not exist.
        for parent in [1u64, 5] {
            let bytes = resealed(set("parents", 1, &parent.to_le_bytes()));
            assert_parse_error(&bytes, &format!("parent {parent}"));
        }
    }

    #[test]
    fn parent_id_above_u32_rejected() {
        // 2³² would truncate to parent 0 and load as a valid child.
        let bytes = resealed(set("parents", 1, &(1u64 << 32).to_le_bytes()));
        assert_parse_error(&bytes, "parent 2^32");
    }

    #[test]
    fn duplicate_category_name_rejected() {
        let bytes = resealed(set("names", 8, b"Food"));
        assert_parse_error(&bytes, "two categories named Food");
    }

    #[test]
    fn non_utf8_name_rejected() {
        let bytes = resealed(set("names", 0, &[0xff]));
        assert_parse_error(&bytes, "a city name that is not UTF-8");
    }

    #[test]
    fn length_columns_must_sum_to_their_counts() {
        // Names of 4, 4 and 4 bytes re-cut as 3, 4 and 5 still fill N.
        let recut = resealed(|b| {
            set("name lengths", 0, &3u32.to_le_bytes())(b);
            set("name lengths", 2, &5u32.to_le_bytes())(b);
        });
        assert_eq!(read_dataset(&recut[..]).unwrap().name, "tin");
        let bytes = resealed(set("name lengths", 0, &3u32.to_le_bytes()));
        assert_parse_error(&bytes, "name lengths summing short of N");
        let bytes = resealed(set("poi tag counts", 0, &0u32.to_le_bytes()));
        assert_parse_error(&bytes, "tag counts summing short of T");
    }

    #[test]
    fn poi_vertex_out_of_range_rejected() {
        let bytes = resealed(set("poi vertices", 0, &2u32.to_le_bytes()));
        assert_parse_error(&bytes, "poi vertex 2");
    }

    #[test]
    fn poi_category_out_of_range_rejected() {
        let bytes = resealed(set("poi tags", 0, &2u32.to_le_bytes()));
        assert_parse_error(&bytes, "poi category 2");
    }

    #[test]
    fn oversized_counts_rejected_without_allocating() {
        // A count is checked against the input's length, never used to size
        // an allocation up front: each read allocates a few KiB at most.
        for value in [u64::MAX, 10_000_000_000, 1 << 32] {
            for index in 0..6 {
                let bytes = resealed(set_count(index, value));
                let before = ALLOCATED.with(Cell::get);
                assert_parse_error(&bytes, &format!("count {index} = {value}"));
                let allocated = ALLOCATED.with(Cell::get) - before;
                assert!(allocated < 16 << 10, "count {index} = {value}: {allocated} bytes");
            }
        }
    }

    #[test]
    fn writer_refuses_what_the_snapshot_cannot_store() {
        let mut d = tiny();
        let mut gb = GraphBuilder::new();
        let a = gb.add_vertex_at(GeoPoint::new(35.68, 139.77));
        let b = gb.add_vertex();
        gb.add_edge(a, b, 1.5);
        d.graph = gb.build();
        assert!(matches!(write_dataset(&d, Vec::new()), Err(CodecError::Parse(_))));
        let mut gb = GraphBuilder::directed();
        let a = gb.add_vertex_at(GeoPoint::new(35.68, 139.77));
        let b = gb.add_vertex_at(GeoPoint::new(35.69, 139.77));
        gb.add_edge(a, b, 1.5);
        d.graph = gb.build();
        assert!(matches!(write_dataset(&d, Vec::new()), Err(CodecError::Parse(_))));
    }

    #[test]
    fn file_roundtrip() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.05).generate();
        let name = format!("skysr_codec_test_{}.skysr", std::process::id());
        let path = std::env::temp_dir().join(name);
        save_dataset(&d, &path).unwrap();
        let d2 = load_dataset(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(d.stats(), d2.stats());
    }
}
