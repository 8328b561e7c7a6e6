//! Plain-text dataset persistence.
//!
//! Generated datasets can be saved and reloaded so expensive full-scale
//! generations are paid once. The format is a line-oriented, tab-separated
//! text file — deliberately dependency-free and diffable:
//!
//! ```text
//! skysr-dataset v1
//! name\t<display name>
//! forest\t<num categories>
//! c\t<parent id | -1>\t<name>          (one per category, id = order)
//! graph\t<num vertices>\t<num edges>
//! v\t<lat>\t<lon>                       (or "v\t-" without coordinates)
//! e\t<from>\t<to>\t<weight>
//! pois\t<num pois>
//! p\t<vertex>\t<cat>[\t<cat>...]
//! end
//! ```

use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use skysr_category::{CategoryId, ForestBuilder};
use skysr_core::PoiTable;
use skysr_graph::{GeoPoint, GraphBuilder, VertexId};

use crate::dataset::Dataset;

/// Codec errors.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the input, with a line hint.
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

/// Serialises `dataset` to a writer.
pub fn write_dataset<W: Write>(dataset: &Dataset, w: W) -> Result<(), CodecError> {
    let mut w = BufWriter::new(w);
    writeln!(w, "skysr-dataset v1")?;
    writeln!(w, "name\t{}", dataset.name)?;
    writeln!(w, "forest\t{}", dataset.forest.num_categories())?;
    for c in dataset.forest.categories() {
        let parent = dataset.forest.parent(c).map_or(-1i64, |p| p.0 as i64);
        writeln!(w, "c\t{parent}\t{}", dataset.forest.name(c))?;
    }
    writeln!(w, "graph\t{}\t{}", dataset.graph.num_vertices(), dataset.graph.num_edges())?;
    for v in dataset.graph.vertices() {
        match dataset.graph.coords_of(v) {
            Some(p) => writeln!(w, "v\t{}\t{}", p.lat, p.lon)?,
            None => writeln!(w, "v\t-")?,
        }
    }
    // Each undirected edge is stored once; enumerate arcs from the lower
    // endpoint. Parallel edges survive (each copy appears once); graphs
    // with self-loops or directed arcs are outside this codec's scope.
    let mut written = 0usize;
    for u in dataset.graph.vertices() {
        for (v, c) in dataset.graph.neighbors(u) {
            if u.0 < v.0 {
                writeln!(w, "e\t{}\t{}\t{}", u.0, v.0, c.get())?;
                written += 1;
            }
        }
    }
    if written != dataset.graph.num_edges() {
        return Err(parse_err("codec supports undirected graphs without self-loops"));
    }
    writeln!(w, "pois\t{}", dataset.poi_vertices.len())?;
    for &p in &dataset.poi_vertices {
        write!(w, "p\t{}", p.0)?;
        for c in dataset.pois.categories_of(p) {
            write!(w, "\t{}", c.0)?;
        }
        writeln!(w)?;
    }
    writeln!(w, "end")?;
    w.flush()?;
    Ok(())
}

/// Deserialises a dataset from a reader. Malformed input — including ids
/// out of range, a parent listed after its child, a repeated category name
/// or a negative or NaN edge weight — is a [`CodecError::Parse`], never a
/// panic.
pub fn read_dataset<R: Read>(r: R) -> Result<Dataset, CodecError> {
    let mut lines = BufReader::new(r).lines();
    let mut next = || -> Result<String, CodecError> {
        lines.next().ok_or_else(|| parse_err("unexpected end of file"))?.map_err(CodecError::Io)
    };

    if next()? != "skysr-dataset v1" {
        return Err(parse_err("bad magic line"));
    }
    let name_line = next()?;
    let name =
        name_line.strip_prefix("name\t").ok_or_else(|| parse_err("expected name line"))?.to_owned();

    // Forest.
    let forest_line = next()?;
    let ncat: usize = forest_line
        .strip_prefix("forest\t")
        .ok_or_else(|| parse_err("expected forest line"))?
        .parse()
        .map_err(|_| parse_err("bad category count"))?;
    let mut fb = ForestBuilder::new();
    let mut names = HashSet::new();
    for i in 0..ncat {
        let line = next()?;
        let mut parts = line.splitn(3, '\t');
        if parts.next() != Some("c") {
            return Err(parse_err(format!("expected category line {i}")));
        }
        let parent: i64 = parts
            .next()
            .ok_or_else(|| parse_err("missing parent"))?
            .parse()
            .map_err(|_| parse_err("bad parent id"))?;
        let cname = parts.next().ok_or_else(|| parse_err("missing category name"))?;
        if !names.insert(cname.to_owned()) {
            return Err(parse_err(format!("duplicate category name {cname:?}")));
        }
        let id = if parent < 0 {
            fb.add_root(cname)
        } else if parent < i as i64 {
            fb.add_child(CategoryId(parent as u32), cname)
        } else {
            return Err(parse_err(format!("category {i}: parent {parent} not listed before it")));
        };
        if id.0 as usize != i {
            return Err(parse_err("categories out of order"));
        }
    }
    let forest = fb.build();

    // Graph.
    let graph_line = next()?;
    let rest =
        graph_line.strip_prefix("graph\t").ok_or_else(|| parse_err("expected graph line"))?;
    let mut parts = rest.split('\t');
    let nv: usize =
        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad vertex count"))?;
    let ne: usize =
        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad edge count"))?;
    let mut gb = GraphBuilder::new();
    for _ in 0..nv {
        let line = next()?;
        let rest = line.strip_prefix("v\t").ok_or_else(|| parse_err("expected vertex line"))?;
        if rest == "-" {
            gb.add_vertex();
        } else {
            let mut p = rest.split('\t');
            let lat: f64 =
                p.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad latitude"))?;
            let lon: f64 =
                p.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad longitude"))?;
            gb.add_vertex_at(GeoPoint::new(lat, lon));
        }
    }
    for _ in 0..ne {
        let line = next()?;
        let rest = line.strip_prefix("e\t").ok_or_else(|| parse_err("expected edge line"))?;
        let mut p = rest.split('\t');
        let from: u32 =
            p.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad edge tail"))?;
        let to: u32 =
            p.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad edge head"))?;
        let weight: f64 =
            p.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad edge weight"))?;
        if from as usize >= nv || to as usize >= nv {
            return Err(parse_err(format!("edge {from}-{to} outside {nv} vertices")));
        }
        if weight.is_nan() || weight < 0.0 {
            return Err(parse_err(format!("edge {from}-{to} has weight {weight}")));
        }
        gb.add_edge(VertexId(from), VertexId(to), weight);
    }
    let graph = gb.build();

    // PoIs.
    let pois_line = next()?;
    let np: usize = pois_line
        .strip_prefix("pois\t")
        .ok_or_else(|| parse_err("expected pois line"))?
        .parse()
        .map_err(|_| parse_err("bad poi count"))?;
    let mut pois = PoiTable::new(graph.num_vertices());
    let mut poi_vertices = Vec::new();
    for _ in 0..np {
        let line = next()?;
        let rest = line.strip_prefix("p\t").ok_or_else(|| parse_err("expected poi line"))?;
        let mut p = rest.split('\t');
        let v: u32 =
            p.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad poi vertex"))?;
        if v as usize >= nv {
            return Err(parse_err(format!("poi vertex {v} outside {nv} vertices")));
        }
        poi_vertices.push(VertexId(v));
        for cat in p {
            let c: u32 = cat.parse().map_err(|_| parse_err("bad poi category"))?;
            if c as usize >= forest.num_categories() {
                return Err(parse_err("poi category out of range"));
            }
            pois.add_poi(VertexId(v), CategoryId(c));
        }
    }
    pois.finalize(&forest);
    if next()? != "end" {
        return Err(parse_err("missing end marker"));
    }
    Ok(Dataset { name, graph, forest, pois, poi_vertices, spec: None })
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
    use super::*;
    use crate::dataset::{DatasetSpec, Preset};

    #[test]
    fn roundtrip_preserves_structure() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(4).generate();
        let mut buf = Vec::new();
        write_dataset(&d, &mut buf).unwrap();
        let d2 = read_dataset(&buf[..]).unwrap();
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
        let mut buf = Vec::new();
        write_dataset(&d, &mut buf).unwrap();
        let d2 = read_dataset(&buf[..]).unwrap();
        let w = crate::workload::WorkloadSpec::new(2).queries(3).generate(&d);
        let ctx1 = d.context();
        let ctx2 = d2.context();
        let mut b1 = skysr_core::bssr::Bssr::new(&ctx1);
        let mut b2 = skysr_core::bssr::Bssr::new(&ctx2);
        for q in &w.queries {
            let r1 = b1.run(q).unwrap();
            let r2 = b2.run(q).unwrap();
            assert_eq!(r1.routes, r2.routes);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_dataset(&b"nope\n"[..]).unwrap_err();
        assert!(matches!(err, CodecError::Parse(_)));
    }

    #[test]
    fn truncated_input_rejected() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.05).generate();
        let mut buf = Vec::new();
        write_dataset(&d, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_dataset(&buf[..]).is_err());
    }

    /// A minimal dataset — two categories, two vertices, one edge, one
    /// PoI — with `replace`'s lines swapped in.
    fn tiny(replace: &[(&str, &str)]) -> Result<Dataset, CodecError> {
        let mut text = "skysr-dataset v1\nname\ttiny\nforest\t2\nc\t-1\tFood\nc\t0\tSushi\n\
                        graph\t2\t1\nv\t-\nv\t-\ne\t0\t1\t1.5\npois\t1\np\t1\t1\nend\n"
            .to_owned();
        for (from, to) in replace {
            assert!(text.contains(from), "{from:?} is not a line of the template");
            text = text.replace(from, to);
        }
        read_dataset(text.as_bytes())
    }

    fn assert_parse_error(replace: &[(&str, &str)]) {
        match tiny(replace) {
            Err(CodecError::Parse(_)) => {}
            other => panic!("{replace:?}: expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn tiny_template_parses() {
        let d = tiny(&[]).unwrap();
        assert_eq!(d.graph.num_vertices(), 2);
        assert_eq!(d.pois.categories_of(VertexId(1)), &[CategoryId(1)]);
    }

    #[test]
    fn poi_vertex_out_of_range_rejected() {
        assert_parse_error(&[("p\t1\t1", "p\t2\t1")]);
    }

    #[test]
    fn edge_endpoint_out_of_range_rejected() {
        assert_parse_error(&[("e\t0\t1\t1.5", "e\t0\t2\t1.5")]);
        assert_parse_error(&[("e\t0\t1\t1.5", "e\t7\t1\t1.5")]);
    }

    #[test]
    fn nan_or_negative_edge_weight_rejected() {
        assert_parse_error(&[("e\t0\t1\t1.5", "e\t0\t1\tNaN")]);
        assert_parse_error(&[("e\t0\t1\t1.5", "e\t0\t1\t-2")]);
    }

    #[test]
    fn category_parent_not_listed_before_rejected() {
        assert_parse_error(&[("c\t0\tSushi", "c\t1\tSushi")]);
        assert_parse_error(&[("c\t0\tSushi", "c\t5\tSushi")]);
    }

    #[test]
    fn parent_id_above_u32_rejected() {
        // 2³² would truncate to parent 0 and load as a valid child.
        assert_parse_error(&[("c\t0\tSushi", "c\t4294967296\tSushi")]);
    }

    #[test]
    fn duplicate_category_name_rejected() {
        assert_parse_error(&[("c\t0\tSushi", "c\t0\tFood")]);
    }

    #[test]
    fn oversized_counts_rejected_without_allocating() {
        // A count is checked against the lines that follow, never used to
        // size an allocation up front.
        for count in ["18446744073709551615", "10000000000"] {
            for (line, bad) in [
                ("forest\t2", format!("forest\t{count}")),
                ("graph\t2\t1", format!("graph\t{count}\t1")),
                ("graph\t2\t1", format!("graph\t2\t{count}")),
                ("pois\t1", format!("pois\t{count}")),
            ] {
                assert_parse_error(&[(line, bad.as_str())]);
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.05).generate();
        let path = std::env::temp_dir().join("skysr_codec_test.txt");
        save_dataset(&d, &path).unwrap();
        let d2 = load_dataset(&path).unwrap();
        assert_eq!(d.stats(), d2.stats());
        std::fs::remove_file(&path).ok();
    }
}
