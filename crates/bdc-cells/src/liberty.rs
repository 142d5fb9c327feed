//! Liberty-flavoured text serialization of characterized libraries.
//!
//! The real flow writes `.lib` files from SiliconSmart and reads them in
//! Design Compiler; here a compact line-oriented dialect captures the same
//! information (cells, NLDM tables, wire model, sequential constraints) and
//! round-trips losslessly, so characterized libraries can be cached on disk
//! instead of re-simulated.

use std::fmt::Write as _;

use crate::characterize::GateTiming;
use crate::library::{Cell, CellKind, CellLibrary, DffTiming};
use crate::nldm::NldmTable;
use crate::technology::Process;
use crate::wire::WireModel;

/// Errors raised while parsing a library file.
#[derive(Debug, Clone, PartialEq)]
pub enum LibertyError {
    /// Unexpected or missing token.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The file parsed but did not contain a complete library.
    Incomplete(String),
}

impl std::fmt::Display for LibertyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LibertyError::Parse { line, message } => write!(f, "line {line}: {message}"),
            LibertyError::Incomplete(what) => write!(f, "incomplete library: missing {what}"),
        }
    }
}

impl std::error::Error for LibertyError {}

/// Serializes a library to the text dialect.
pub fn write_library(lib: &CellLibrary) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "library {}", lib.name);
    let _ = writeln!(s, "process {}", lib.process.tech().liberty_tag);
    let _ = writeln!(s, "vdd {:e}", lib.vdd);
    let _ = writeln!(s, "vss {:e}", lib.vss);
    let rep = lib
        .wire
        .repeated_s_per_m
        .map(|v| format!("{v:e}"))
        .unwrap_or_else(|| "none".into());
    let _ = writeln!(
        s,
        "wire {:e} {:e} {rep}",
        lib.wire.r_per_m, lib.wire.c_per_m
    );
    let _ = writeln!(
        s,
        "dff_timing {:e} {:e} {:e}",
        lib.dff.setup, lib.dff.hold, lib.dff.clk_to_q
    );
    for cell in lib.cells() {
        let _ = writeln!(s, "cell {}", cell.kind.name());
        let _ = writeln!(s, "area {:e}", cell.area);
        let _ = writeln!(s, "input_cap {:e}", cell.input_cap);
        let _ = writeln!(s, "leakage {:e}", cell.leakage_w);
        let _ = writeln!(s, "switching_energy {:e}", cell.switching_energy);
        write_table(&mut s, "delay_rise", &cell.timing.delay_rise);
        write_table(&mut s, "delay_fall", &cell.timing.delay_fall);
        write_table(&mut s, "out_slew", &cell.timing.out_slew);
        let _ = writeln!(s, "end_cell");
    }
    let _ = writeln!(s, "end_library");
    s
}

fn write_table(s: &mut String, name: &str, t: &NldmTable) {
    let fmt_axis = |a: &[f64]| {
        a.iter()
            .map(|v| format!("{v:e}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(s, "table {name}");
    let _ = writeln!(s, "slews {}", fmt_axis(t.slews()));
    let _ = writeln!(s, "loads {}", fmt_axis(t.loads()));
    for row in t.values() {
        let _ = writeln!(s, "row {}", fmt_axis(row));
    }
    let _ = writeln!(s, "end_table");
}

/// Parses the text dialect back into a [`CellLibrary`].
///
/// # Errors
/// Returns [`LibertyError`] for malformed input or incomplete libraries.
pub fn parse_library(text: &str) -> Result<CellLibrary, LibertyError> {
    let mut lines = text.lines().enumerate().peekable();
    let mut name = None;
    let mut process = None;
    let mut vdd = None;
    let mut vss = None;
    let mut wire = None;
    let mut dff = None;
    let mut cells: Vec<Cell> = Vec::new();

    let err = |line: usize, message: &str| LibertyError::Parse {
        line: line + 1,
        message: message.into(),
    };

    while let Some((ln, raw)) = lines.next() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut tok = line.split_whitespace();
        let key = tok.next().unwrap();
        match key {
            "library" => name = Some(tok.collect::<Vec<_>>().join(" ")),
            "process" => {
                let tag = tok.next();
                process = Some(
                    Process::both()
                        .into_iter()
                        .find(|p| Some(p.tech().liberty_tag) == tag)
                        .ok_or_else(|| err(ln, &format!("unknown process {tag:?}")))?,
                )
            }
            "vdd" => vdd = Some(parse_f64(tok.next(), ln)?),
            "vss" => vss = Some(parse_f64(tok.next(), ln)?),
            "wire" => {
                let r = parse_f64(tok.next(), ln)?;
                let c = parse_f64(tok.next(), ln)?;
                let rep = match tok.next() {
                    Some("none") | None => None,
                    Some(v) => Some(
                        v.parse::<f64>()
                            .map_err(|_| err(ln, "bad repeated value"))?,
                    ),
                };
                wire = Some(WireModel {
                    r_per_m: r,
                    c_per_m: c,
                    repeated_s_per_m: rep,
                });
            }
            "dff_timing" => {
                dff = Some(DffTiming {
                    setup: parse_f64(tok.next(), ln)?,
                    hold: parse_f64(tok.next(), ln)?,
                    clk_to_q: parse_f64(tok.next(), ln)?,
                });
            }
            "cell" => {
                let kind_name = tok.next().ok_or_else(|| err(ln, "cell needs a name"))?;
                let kind = CellKind::from_name(kind_name)
                    .ok_or_else(|| err(ln, &format!("unknown cell {kind_name}")))?;
                let cell = parse_cell(kind, &mut lines)?;
                cells.push(cell);
            }
            "end_library" => break,
            other => return Err(err(ln, &format!("unexpected token {other}"))),
        }
    }

    let name = name.ok_or_else(|| LibertyError::Incomplete("library name".into()))?;
    let process = process.ok_or_else(|| LibertyError::Incomplete("process".into()))?;
    let vdd = vdd.ok_or_else(|| LibertyError::Incomplete("vdd".into()))?;
    let vss = vss.ok_or_else(|| LibertyError::Incomplete("vss".into()))?;
    let wire = wire.ok_or_else(|| LibertyError::Incomplete("wire".into()))?;
    let dff = dff.ok_or_else(|| LibertyError::Incomplete("dff_timing".into()))?;
    if cells.len() != 6 {
        return Err(LibertyError::Incomplete(format!(
            "6 cells (got {})",
            cells.len()
        )));
    }
    Ok(CellLibrary::from_cells(
        name, process, vdd, vss, wire, dff, cells,
    ))
}

fn parse_f64(tok: Option<&str>, line: usize) -> Result<f64, LibertyError> {
    tok.ok_or(LibertyError::Parse {
        line: line + 1,
        message: "missing number".into(),
    })?
    .parse::<f64>()
    .map_err(|_| LibertyError::Parse {
        line: line + 1,
        message: "bad number".into(),
    })
}

type Lines<'a> = std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>;

fn parse_cell(kind: CellKind, lines: &mut Lines<'_>) -> Result<Cell, LibertyError> {
    let mut area = None;
    let mut input_cap = None;
    let mut leakage = 0.0;
    let mut switching_energy = 0.0;
    let mut delay_rise = None;
    let mut delay_fall = None;
    let mut out_slew = None;
    while let Some((ln, raw)) = lines.next() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut tok = line.split_whitespace();
        match tok.next().unwrap() {
            "area" => area = Some(parse_f64(tok.next(), ln)?),
            "input_cap" => input_cap = Some(parse_f64(tok.next(), ln)?),
            "leakage" => leakage = parse_f64(tok.next(), ln)?,
            "switching_energy" => switching_energy = parse_f64(tok.next(), ln)?,
            "table" => {
                let tname = tok.next().unwrap_or("");
                let table = parse_table(lines)?;
                match tname {
                    "delay_rise" => delay_rise = Some(table),
                    "delay_fall" => delay_fall = Some(table),
                    "out_slew" => out_slew = Some(table),
                    other => {
                        return Err(LibertyError::Parse {
                            line: ln + 1,
                            message: format!("unknown table {other}"),
                        })
                    }
                }
            }
            "end_cell" => break,
            other => {
                return Err(LibertyError::Parse {
                    line: ln + 1,
                    message: format!("unexpected token {other} in cell"),
                })
            }
        }
    }
    Ok(Cell {
        kind,
        area: area.ok_or_else(|| LibertyError::Incomplete("cell area".into()))?,
        input_cap: input_cap.ok_or_else(|| LibertyError::Incomplete("cell input_cap".into()))?,
        leakage_w: leakage,
        switching_energy,
        timing: GateTiming {
            delay_rise: delay_rise.ok_or_else(|| LibertyError::Incomplete("delay_rise".into()))?,
            delay_fall: delay_fall.ok_or_else(|| LibertyError::Incomplete("delay_fall".into()))?,
            out_slew: out_slew.ok_or_else(|| LibertyError::Incomplete("out_slew".into()))?,
        },
    })
}

fn parse_table(lines: &mut Lines<'_>) -> Result<NldmTable, LibertyError> {
    let mut slews = None;
    let mut loads = None;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (ln, raw) in lines.by_ref() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut tok = line.split_whitespace();
        let parse_axis = |tok: std::str::SplitWhitespace<'_>, ln: usize| {
            tok.map(|t| {
                t.parse::<f64>().map_err(|_| LibertyError::Parse {
                    line: ln + 1,
                    message: format!("bad number {t}"),
                })
            })
            .collect::<Result<Vec<f64>, _>>()
        };
        match tok.next().unwrap() {
            "slews" => slews = Some(parse_axis(tok, ln)?),
            "loads" => loads = Some(parse_axis(tok, ln)?),
            "row" => rows.push(parse_axis(tok, ln)?),
            "end_table" => break,
            other => {
                return Err(LibertyError::Parse {
                    line: ln + 1,
                    message: format!("unexpected token {other} in table"),
                })
            }
        }
    }
    let slews = slews.ok_or_else(|| LibertyError::Incomplete("table slews".into()))?;
    let loads = loads.ok_or_else(|| LibertyError::Incomplete("table loads".into()))?;
    Ok(NldmTable::new(slews, loads, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_synthetic_library() {
        let lib = CellLibrary::synthetic(Process::Organic, 1.1e-4);
        let text = write_library(&lib);
        let back = parse_library(&text).expect("parse");
        assert_eq!(back.name, lib.name);
        assert_eq!(back.process, lib.process);
        assert_eq!(back.vdd, lib.vdd);
        assert_eq!(back.wire, lib.wire);
        assert_eq!(back.dff, lib.dff);
        for kind in CellKind::all() {
            let a = lib.cell(kind);
            let b = back.cell(kind);
            assert_eq!(a.area, b.area);
            assert_eq!(a.input_cap, b.input_cap);
            assert_eq!(a.timing.delay_rise, b.timing.delay_rise);
            assert_eq!(a.timing.out_slew, b.timing.out_slew);
        }
    }

    #[test]
    fn round_trip_silicon_flavor() {
        let lib = CellLibrary::synthetic(Process::Silicon, 1.4e-11);
        let back = parse_library(&write_library(&lib)).expect("parse");
        assert_eq!(back.wire.repeated_s_per_m, lib.wire.repeated_s_per_m);
        assert_eq!(
            back.cell(CellKind::Dff).timing.delay_fall,
            lib.cell(CellKind::Dff).timing.delay_fall
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse_library("nonsense here"),
            Err(LibertyError::Parse { .. })
        ));
        assert!(matches!(
            parse_library(""),
            Err(LibertyError::Incomplete(_))
        ));
    }

    #[test]
    fn parse_reports_missing_cells() {
        let lib = CellLibrary::synthetic(Process::Organic, 1.0);
        let mut text = write_library(&lib);
        // Drop the last cell block.
        let idx = text.rfind("cell ").unwrap();
        text.truncate(idx);
        text.push_str("end_library\n");
        match parse_library(&text) {
            Err(LibertyError::Incomplete(m)) => assert!(m.contains("6 cells")),
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn error_display_mentions_line() {
        let e = LibertyError::Parse {
            line: 42,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("42"));
    }
}
