//! The benchmark's workloads and the seeded input files the measured
//! program reads.
//!
//! Each workload is a generator with fixed parameters; `--seed` varies the
//! graph. Inputs are generated before any timing starts and cached as
//! `<dir>/<workload>-<seed>-<params hash>.{txt,bin,truth}`: the edge list,
//! the v2 binary container, and the planted partition (used only to score
//! NMI). Every
//! workload gets both graph forms so the trace can time both ingest paths;
//! the end-to-end run reads only the workload's own [`Format`].

use gala_graph::generators::lfr::LfrParams;
use gala_graph::generators::sbm::{GroundTruthGraph, PowerLawSbm};
use gala_graph::{io, Graph, GraphStore, Partition};
use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Which input file `gala detect` is pointed at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Whitespace edge list, parsed and built (`io::load_edge_list`).
    Text,
    /// v2 binary container (`io::load_binary_mapped`).
    Binary,
}

impl Format {
    pub fn name(self) -> &'static str {
        match self {
            Format::Text => "text",
            Format::Binary => "binary",
        }
    }
}

/// The generator behind a workload.
#[derive(Clone, Debug)]
pub enum Shape {
    Sbm(PowerLawSbm),
    Lfr(LfrParams),
}

impl Shape {
    pub fn generate(&self, seed: u64) -> GroundTruthGraph {
        match self {
            Shape::Sbm(p) => p.generate(seed),
            Shape::Lfr(p) => p.generate(seed),
        }
    }

    /// The generator parameters as a JSON object, for report metadata.
    pub fn params_json(&self) -> String {
        match self {
            Shape::Sbm(p) => format!(
                "{{\"generator\":\"PowerLawSbm\",\"num_vertices\":{},\"min_community\":{},\
                 \"max_community\":{},\"size_exponent\":{},\"internal_degree\":{},\"mixing\":{}}}",
                p.num_vertices,
                p.min_community,
                p.max_community,
                p.size_exponent,
                p.internal_degree,
                p.mixing
            ),
            Shape::Lfr(p) => format!(
                "{{\"generator\":\"LfrParams\",\"num_vertices\":{},\"min_degree\":{},\
                 \"max_degree\":{},\"degree_exponent\":{},\"min_community\":{},\
                 \"max_community\":{},\"community_exponent\":{},\"mixing\":{}}}",
                p.num_vertices,
                p.min_degree,
                p.max_degree,
                p.degree_exponent,
                p.min_community,
                p.max_community,
                p.community_exponent,
                p.mixing
            ),
        }
    }
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub format: Format,
}

/// All workloads, in the order `BENCHMARK.json` lists them. Why each one
/// exists is recorded there and in README.md.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "social",
            shape: Shape::Sbm(PowerLawSbm {
                num_vertices: 100_000,
                min_community: 15,
                max_community: 500,
                size_exponent: 2.0,
                internal_degree: 10.0,
                mixing: 0.30,
            }),
            format: Format::Text,
        },
        Workload {
            name: "web",
            shape: Shape::Sbm(PowerLawSbm {
                num_vertices: 150_000,
                min_community: 15,
                max_community: 300,
                size_exponent: 2.0,
                internal_degree: 10.0,
                mixing: 0.01,
            }),
            format: Format::Binary,
        },
        Workload {
            name: "lfr",
            shape: Shape::Lfr(LfrParams {
                num_vertices: 75_000,
                min_degree: 5,
                max_degree: 50,
                degree_exponent: 2.5,
                min_community: 20,
                max_community: 100,
                community_exponent: 1.5,
                mixing: 0.30,
            }),
            format: Format::Text,
        },
        Workload {
            name: "dense",
            shape: Shape::Sbm(PowerLawSbm {
                num_vertices: 150_000,
                min_community: 100,
                max_community: 2_000,
                size_exponent: 2.0,
                internal_degree: 40.0,
                mixing: 0.20,
            }),
            format: Format::Text,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Paths of one workload's cached inputs at one seed.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub text: PathBuf,
    pub binary: PathBuf,
    pub truth: PathBuf,
    dir: PathBuf,
    stem: String,
}

impl Inputs {
    /// Where `workload`'s inputs at `seed` live under `dir`. The file stem
    /// carries a hash of the generator parameters, so a cache filled by a
    /// differently-sized workload is never mistaken for this one's.
    pub fn locate(workload: &Workload, seed: u64, dir: &Path) -> Inputs {
        let params = crate::fnv1a(workload.shape.params_json().bytes()) as u32;
        let stem = format!("{}-{seed}-{params:08x}", workload.name);
        Inputs {
            text: dir.join(format!("{stem}.txt")),
            binary: dir.join(format!("{stem}.bin")),
            truth: dir.join(format!("{stem}.truth")),
            dir: dir.to_path_buf(),
            stem,
        }
    }

    pub fn is_complete(&self) -> bool {
        [&self.text, &self.binary, &self.truth]
            .iter()
            .all(|p| p.is_file())
    }

    /// Generates the inputs. Other cached inputs of the same workload are
    /// removed first, so the cache holds one input set per workload.
    pub fn generate(&self, workload: &Workload, seed: u64) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let prefix = format!("{}-", workload.name);
        let own = format!("{}.", self.stem);
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(&prefix) && !name.starts_with(&own) {
                fs::remove_file(&path)?;
            }
        }
        let gt = workload.shape.generate(seed);
        // Each file is written under a temporary name and renamed into
        // place, so an interrupted generation never leaves a file that
        // looks complete.
        write_then_rename(&self.text, |tmp| {
            let mut w = BufWriter::new(File::create(tmp)?);
            io::write_edge_list(&gt.graph, &mut w)?;
            w.flush()
        })?;
        write_then_rename(&self.binary, |tmp| io::save_binary(&gt.graph, tmp))?;
        write_then_rename(&self.truth, |tmp| {
            let mut w = BufWriter::new(File::create(tmp)?);
            for c in gt.ground_truth.assignment() {
                writeln!(w, "{c}")?;
            }
            w.flush()
        })
    }

    /// Loads the graph the way `gala detect --backend native` does for
    /// `format`: the text parser plus builder, or the mapped v2 container.
    pub fn load(&self, format: Format) -> std::io::Result<Graph> {
        match format {
            Format::Text => io::load_edge_list(&self.text),
            Format::Binary => {
                io::load_binary_mapped(&self.binary).map(|m| GraphStore::Mapped(m).into_graph())
            }
        }
    }

    /// The planted partition, one community id per line.
    pub fn truth(&self) -> std::io::Result<Partition> {
        let mut assignment = Vec::new();
        for line in BufReader::new(File::open(&self.truth)?).lines() {
            let line = line?;
            let c = line.trim().parse().map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: bad community id {line:?}: {e}", self.truth.display()),
                )
            })?;
            assignment.push(c);
        }
        Ok(Partition::from_assignment(assignment))
    }
}

fn write_then_rename(
    path: &Path,
    write: impl FnOnce(&Path) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    write(&tmp)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(format: Format) -> Workload {
        Workload {
            name: "tiny",
            shape: Shape::Sbm(PowerLawSbm {
                num_vertices: 600,
                min_community: 10,
                max_community: 60,
                size_exponent: 2.0,
                internal_degree: 6.0,
                mixing: 0.2,
            }),
            format,
        }
    }

    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench_e2e-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn prepare(w: &Workload, seed: u64, dir: &Path) -> Inputs {
        let inputs = Inputs::locate(w, seed, dir);
        inputs.generate(w, seed).unwrap();
        assert!(inputs.is_complete());
        inputs
    }

    #[test]
    fn same_seed_gives_byte_identical_files() {
        let w = tiny(Format::Text);
        let a_dir = scratch_dir("bytes-a");
        let b_dir = scratch_dir("bytes-b");
        let a = prepare(&w, 7, &a_dir);
        let b = prepare(&w, 7, &b_dir);
        for (x, y) in [
            (&a.text, &b.text),
            (&a.binary, &b.binary),
            (&a.truth, &b.truth),
        ] {
            assert_eq!(
                fs::read(x).unwrap(),
                fs::read(y).unwrap(),
                "{}",
                x.display()
            );
        }
        let c = prepare(&w, 8, &a_dir);
        assert_ne!(fs::read(&c.text).unwrap(), fs::read(&b.text).unwrap());
        // Moving to seed 8 evicted seed 7's files from the cache.
        assert!(!a.is_complete() && !a.text.exists() && !a.truth.exists());
        fs::remove_dir_all(a_dir).unwrap();
        fs::remove_dir_all(b_dir).unwrap();
    }

    #[test]
    fn other_parameters_get_other_files() {
        let mut bigger = tiny(Format::Text);
        if let Shape::Sbm(p) = &mut bigger.shape {
            p.num_vertices += 100;
        }
        let dir = scratch_dir("params");
        assert_ne!(
            Inputs::locate(&tiny(Format::Text), 1, &dir).text,
            Inputs::locate(&bigger, 1, &dir).text
        );
    }

    #[test]
    fn text_and_binary_load_to_the_same_csr() {
        let dir = scratch_dir("forms");
        let inputs = prepare(&tiny(Format::Text), 3, &dir);
        let text = inputs.load(Format::Text).unwrap();
        let binary = inputs.load(Format::Binary).unwrap();
        assert!(text == binary, "text and binary forms disagree");
        assert_eq!(text, tiny(Format::Text).shape.generate(3).graph);
        assert_eq!(inputs.truth().unwrap().len(), text.num_vertices());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_missing_file_makes_the_inputs_incomplete() {
        let dir = scratch_dir("cache");
        let inputs = prepare(&tiny(Format::Binary), 5, &dir);
        fs::remove_file(&inputs.truth).unwrap();
        assert!(!inputs.is_complete());
        fs::remove_dir_all(dir).unwrap();
    }
}
