//! Plain-text table/series rendering, so every bench prints the rows the
//! corresponding paper table/figure reports.

/// A printable table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Add a row (cells are displayed verbatim).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// A printable (x, y...) series — the textual form of a figure.
pub struct Series {
    title: String,
    x_label: String,
    y_labels: Vec<String>,
    points: Vec<(String, Vec<f64>)>,
}

impl Series {
    /// Start a series.
    pub fn new(title: &str, x_label: &str, y_labels: &[&str]) -> Series {
        Series {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_labels: y_labels.iter().map(|s| s.to_string()).collect(),
            points: Vec::new(),
        }
    }

    /// Add a data point.
    pub fn point(&mut self, x: impl ToString, ys: &[f64]) {
        self.points.push((x.to_string(), ys.to_vec()));
    }

    /// Render as an aligned listing.
    pub fn render(&self) -> String {
        let mut headers: Vec<&str> = vec![self.x_label.as_str()];
        headers.extend(self.y_labels.iter().map(String::as_str));
        let mut t = Table::new(&self.title, &headers);
        for (x, ys) in &self.points {
            let mut cells = vec![x.clone()];
            cells.extend(ys.iter().map(|y| format!("{y:.3}")));
            t.row(&cells);
        }
        t.render()
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

// ---- machine-readable reports ---------------------------------------------

/// A JSON value, hand-rolled (the workspace carries no serde): just what
/// the `BENCH_*.json` baselines need — objects with stable key order,
/// arrays, numbers, strings, booleans.
#[derive(Debug, Clone)]
pub enum Json {
    /// An integer (rendered without a fraction).
    Int(i64),
    /// A float (rendered via Rust's shortest-round-trip `Display`; NaN
    /// and infinities render as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder: `Json::obj().field("a", 1).field("b", "x")`.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Add (or append) a field to an object; panics on non-objects,
    /// which is always a bench-authoring bug.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::field on non-object {other:?}"),
        }
        self
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
        match self {
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(f) if f.is_finite() => out.push_str(&f.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    Json::Str(k.clone()).render_into(out, indent + 1);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Render as pretty-printed JSON (two-space indent, trailing
    /// newline), deterministic for committed baselines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Write the rendered document to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_deterministically() {
        let doc = Json::obj()
            .field("bench", "demo")
            .field("count", 3u64)
            .field("rate", 0.25)
            .field("ok", true)
            .field("runs", vec![Json::Int(1), Json::obj().field("x", "a\"b")]);
        let text = doc.render();
        assert_eq!(text, doc.render());
        assert!(text.contains("\"bench\": \"demo\""));
        assert!(text.contains("\"count\": 3"));
        assert!(text.contains("\"rate\": 0.25"));
        assert!(text.contains("\\\"b\""));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert!(Json::Num(f64::NAN).render().contains("null"));
        assert!(Json::Num(f64::INFINITY).render().contains("null"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "10000".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("alpha"));
        let lines: Vec<&str> = s.lines().collect();
        // Every row's value starts in the column of the header's `value`.
        let col = lines[1].find("value").unwrap();
        for row in &lines[3..] {
            assert_eq!(row.find(|c: char| c.is_ascii_digit()), Some(col), "{row:?}");
        }
    }

    #[test]
    fn series_renders_points() {
        let mut s = Series::new("Fig", "x", &["y1", "y2"]);
        s.point(1, &[0.5, 2.0]);
        s.point(2, &[1.5, 4.0]);
        let text = s.render();
        assert!(text.contains("0.500"));
        assert!(text.contains("4.000"));
    }
}
