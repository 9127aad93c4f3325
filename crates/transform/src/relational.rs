//! Semi-structured → relational: schema inference and flattening (Fig. 4
//! left path: "transform semi-structured data into structured tables for
//! easier queries").
//!
//! * Arrays of JSON objects become a table: the schema is the union of the
//!   keys, types are inferred by majority, nested objects flatten with
//!   dotted paths, and arrays of objects spawn *child tables* linked by a
//!   synthesized `_parent_id` key (classic shredding).
//! * Repeated XML child elements become rows; attributes and scalar
//!   children become columns.

use llmdm_rt::json::Json;
use llmdm_sqlengine::{Column, DataType, Schema, Table, Value};

use crate::xml::XmlNode;

/// Schema inference over a set of flattened records.
#[derive(Debug, Default)]
pub struct SchemaInference {
    /// (column, counts per type, nulls) accumulated.
    cols: Vec<(String, TypeVotes)>,
}

#[derive(Debug, Default, Clone, Copy)]
struct TypeVotes {
    int: usize,
    float: usize,
    text: usize,
    boolean: usize,
}

impl SchemaInference {
    /// Observe one record's `(path, value)` pairs.
    pub fn observe(&mut self, record: &[(String, Value)]) {
        for (path, v) in record {
            let slot = match self.cols.iter_mut().find(|(p, _)| p == path) {
                Some((_, votes)) => votes,
                None => {
                    self.cols.push((path.clone(), TypeVotes::default()));
                    &mut self.cols.last_mut().expect("just pushed").1
                }
            };
            match v {
                Value::Int(_) => slot.int += 1,
                Value::Float(_) => slot.float += 1,
                Value::Bool(_) => slot.boolean += 1,
                Value::Str(_) => slot.text += 1,
                Value::Null => {}
            }
        }
    }

    /// The inferred schema (columns in first-seen order).
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.cols
                .iter()
                .map(|(name, votes)| {
                    let dtype = if votes.text > 0 {
                        DataType::Text
                    } else if votes.float > 0 {
                        DataType::Float
                    } else if votes.int > 0 {
                        DataType::Int
                    } else if votes.boolean > 0 {
                        DataType::Bool
                    } else {
                        DataType::Text
                    };
                    Column::new(name, dtype)
                })
                .collect(),
        )
    }
}

/// Flatten one JSON object into `(dotted path, scalar value)` pairs;
/// object-array fields are deferred to child tables via `children`.
fn flatten_object(
    prefix: &str,
    obj: &[(String, Json)],
    record: &mut Vec<(String, Value)>,
    children: &mut Vec<(String, Vec<Json>)>,
) {
    for (k, v) in obj {
        let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
        match v {
            Json::Null => record.push((path, Value::Null)),
            Json::Bool(b) => record.push((path, Value::Bool(*b))),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    record.push((path, Value::Int(*n as i64)));
                } else {
                    record.push((path, Value::Float(*n)));
                }
            }
            Json::Str(s) => record.push((path, Value::Str(s.clone()))),
            Json::Obj(fields) => flatten_object(&path, fields, record, children),
            Json::Arr(items) => {
                if items.iter().all(|i| matches!(i, Json::Obj(_))) && !items.is_empty() {
                    children.push((path, items.clone()));
                } else {
                    // Scalar array: joined text rendering.
                    let joined = items
                        .iter()
                        .map(|i| match i {
                            Json::Str(s) => s.clone(),
                            other => other.to_string(),
                        })
                        .collect::<Vec<_>>()
                        .join(",");
                    record.push((path, Value::Str(joined)));
                }
            }
        }
    }
}

/// Convert a JSON document into relational tables.
///
/// The document must be an array of objects, or an object containing such
/// an array (the first one found becomes the root table). Nested arrays of
/// objects become child tables `"{root}_{path}"` with a `_parent_id`
/// column.
pub fn json_to_tables(name: &str, doc: &Json) -> Result<Vec<Table>, String> {
    let rows: &[Json] = match doc {
        Json::Arr(items) => items,
        Json::Obj(fields) => fields
            .iter()
            .find_map(|(_, v)| match v {
                Json::Arr(items)
                    if items.iter().all(|i| matches!(i, Json::Obj(_))) && !items.is_empty() =>
                {
                    Some(items.as_slice())
                }
                _ => None,
            })
            .ok_or("object contains no array of records")?,
        _ => return Err("document is not an array of records".into()),
    };
    if rows.is_empty() {
        return Err("no records".into());
    }

    // Pass 1: flatten and infer.
    let mut inference = SchemaInference::default();
    let mut flat_rows: Vec<Vec<(String, Value)>> = Vec::with_capacity(rows.len());
    let mut child_groups: Vec<(String, Vec<(usize, Json)>)> = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        let Json::Obj(fields) = r else {
            return Err(format!("record {i} is not an object"));
        };
        let mut record = vec![("_id".to_string(), Value::Int(i as i64))];
        let mut children = Vec::new();
        flatten_object("", fields, &mut record, &mut children);
        inference.observe(&record);
        flat_rows.push(record);
        for (path, items) in children {
            let group = match child_groups.iter_mut().find(|(p, _)| *p == path) {
                Some((_, g)) => g,
                None => {
                    child_groups.push((path.clone(), Vec::new()));
                    &mut child_groups.last_mut().expect("just pushed").1
                }
            };
            for item in items {
                group.push((i, item));
            }
        }
    }

    // Pass 2: materialize the root table.
    let schema = inference.schema();
    let mut root = Table::new(name, schema.clone());
    for record in &flat_rows {
        let row: Vec<Value> = schema
            .columns()
            .iter()
            .map(|c| {
                record
                    .iter()
                    .find(|(p, _)| p.to_lowercase() == c.name)
                    .map(|(_, v)| coerce(v, c.dtype))
                    .unwrap_or(Value::Null)
            })
            .collect();
        root.push_row(row).map_err(|e| e.to_string())?;
    }
    let mut out = vec![root];

    // Pass 3: child tables, recursively.
    for (path, items) in child_groups {
        let with_parent: Vec<Json> = items
            .into_iter()
            .map(|(parent, v)| match v {
                Json::Obj(mut fields) => {
                    fields.insert(
                        0,
                        ("_parent_id".to_string(), Json::Num(parent as f64)),
                    );
                    Json::Obj(fields)
                }
                other => other,
            })
            .collect();
        let child_name = format!("{name}_{}", path.replace('.', "_"));
        out.extend(json_to_tables(&child_name, &Json::Arr(with_parent))?);
    }
    Ok(out)
}

/// Coerce a flattened value to the inferred column type.
fn coerce(v: &Value, dtype: DataType) -> Value {
    match (v, dtype) {
        (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
        (Value::Int(i), DataType::Text) => Value::Str(i.to_string()),
        (Value::Float(f), DataType::Text) => Value::Str(f.to_string()),
        (Value::Bool(b), DataType::Text) => Value::Str(b.to_string()),
        _ => v.clone(),
    }
}

/// Convert an XML document into one relational table: each repeated child
/// element of the root becomes a row; attributes and scalar children
/// become columns.
pub fn xml_to_table(root: &XmlNode) -> Result<Table, String> {
    // The row tag: the most frequent child tag.
    let mut tag_counts: Vec<(&str, usize)> = Vec::new();
    for c in &root.children {
        match tag_counts.iter_mut().find(|(t, _)| *t == c.tag) {
            Some((_, n)) => *n += 1,
            None => tag_counts.push((&c.tag, 1)),
        }
    }
    let (row_tag, _) = tag_counts
        .iter()
        .max_by_key(|(_, n)| *n)
        .ok_or("root has no children")?;
    let row_tag = row_tag.to_string();

    let mut inference = SchemaInference::default();
    let mut records: Vec<Vec<(String, Value)>> = Vec::new();
    for (i, node) in root.children_named(&row_tag).enumerate() {
        let mut record = vec![("_id".to_string(), Value::Int(i as i64))];
        for (k, v) in &node.attributes {
            record.push((k.clone(), parse_scalar(v)));
        }
        for child in &node.children {
            if child.children.is_empty() {
                record.push((child.tag.clone(), parse_scalar(&child.text)));
            }
        }
        if !node.text.is_empty() {
            record.push(("_text".to_string(), Value::Str(node.text.clone())));
        }
        inference.observe(&record);
        records.push(record);
    }
    let schema = inference.schema();
    let mut table = Table::new(&row_tag, schema.clone());
    for record in &records {
        let row: Vec<Value> = schema
            .columns()
            .iter()
            .map(|c| {
                record
                    .iter()
                    .find(|(p, _)| p.to_lowercase() == c.name)
                    .map(|(_, v)| coerce(v, c.dtype))
                    .unwrap_or(Value::Null)
            })
            .collect();
        table.push_row(row).map_err(|e| e.to_string())?;
    }
    Ok(table)
}

/// Best-effort scalar typing of a text value.
pub fn parse_scalar(s: &str) -> Value {
    let t = s.trim();
    if t.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        return Value::Float(f);
    }
    match t {
        "true" | "TRUE" => Value::Bool(true),
        "false" | "FALSE" => Value::Bool(false),
        _ => Value::Str(t.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_array_of_objects_to_table() {
        let doc = Json::parse(
            r#"[{"name": "Alice", "age": 34, "city": "Beijing"},
                {"name": "Bob", "age": 40},
                {"name": "Chen", "age": 28, "city": "Singapore"}]"#,
        )
        .unwrap();
        let tables = json_to_tables("people", &doc).unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 3);
        let city_idx = t.schema.index_of("city").unwrap();
        assert!(t.rows[1][city_idx].is_null(), "missing field becomes NULL");
        let age_idx = t.schema.index_of("age").unwrap();
        assert_eq!(t.rows[0][age_idx], Value::Int(34));
    }

    #[test]
    fn nested_objects_flatten_with_dotted_paths() {
        let doc = Json::parse(
            r#"[{"name": "A", "address": {"city": "Beijing", "zip": 100081}}]"#,
        )
        .unwrap();
        let tables = json_to_tables("t", &doc).unwrap();
        let t = &tables[0];
        assert!(t.schema.index_of("address.city").is_some());
        assert!(t.schema.index_of("address.zip").is_some());
    }

    #[test]
    fn object_arrays_become_child_tables() {
        let doc = Json::parse(
            r#"[{"name": "A", "labs": [{"test": "hb", "value": 1.2}, {"test": "glu", "value": 3.4}]},
                {"name": "B", "labs": [{"test": "hb", "value": 0.9}]}]"#,
        )
        .unwrap();
        let tables = json_to_tables("patients", &doc).unwrap();
        assert_eq!(tables.len(), 2);
        let child = &tables[1];
        assert_eq!(child.name, "patients_labs");
        assert_eq!(child.rows.len(), 3);
        let pid = child.schema.index_of("_parent_id").unwrap();
        assert_eq!(child.rows[2][pid], Value::Int(1));
    }

    #[test]
    fn mixed_number_types_widen() {
        let doc = Json::parse(r#"[{"x": 1}, {"x": 2.5}]"#).unwrap();
        let tables = json_to_tables("t", &doc).unwrap();
        let t = &tables[0];
        let x = t.schema.index_of("x").unwrap();
        assert_eq!(t.schema.columns()[x].dtype, DataType::Float);
        assert_eq!(t.rows[0][x], Value::Float(1.0));
    }

    #[test]
    fn wrapped_object_with_array_found() {
        let doc =
            Json::parse(r#"{"meta": 1, "rows": [{"a": 1}, {"a": 2}]}"#).unwrap();
        let tables = json_to_tables("t", &doc).unwrap();
        assert_eq!(tables[0].rows.len(), 2);
    }

    #[test]
    fn scalar_arrays_join_as_text() {
        let doc = Json::parse(r#"[{"tags": ["a", "b", "c"]}]"#).unwrap();
        let tables = json_to_tables("t", &doc).unwrap();
        let t = &tables[0];
        let idx = t.schema.index_of("tags").unwrap();
        assert_eq!(t.rows[0][idx], Value::Str("a,b,c".into()));
    }

    #[test]
    fn resulting_tables_are_queryable() {
        let doc = Json::parse(
            r#"[{"name": "Alice", "age": 34}, {"name": "Bob", "age": 40}]"#,
        )
        .unwrap();
        let tables = json_to_tables("people", &doc).unwrap();
        let mut db = llmdm_sqlengine::Database::new();
        for t in tables {
            db.create_table(t).unwrap();
        }
        let rs = db.query("SELECT name FROM people WHERE age > 35").unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("Bob".into()));
    }

    #[test]
    fn xml_rows_from_repeated_children() {
        let root = XmlNode::parse(
            r#"<patients>
                 <patient id="1"><name>Alice</name><age>34</age></patient>
                 <patient id="2"><name>Bob</name><age>40</age></patient>
               </patients>"#,
        )
        .unwrap();
        let t = xml_to_table(&root).unwrap();
        assert_eq!(t.name, "patient");
        assert_eq!(t.rows.len(), 2);
        let age = t.schema.index_of("age").unwrap();
        assert_eq!(t.rows[1][age], Value::Int(40));
        let id = t.schema.index_of("id").unwrap();
        assert_eq!(t.rows[0][id], Value::Int(1));
    }

    #[test]
    fn non_record_json_rejected() {
        assert!(json_to_tables("t", &Json::parse("42").unwrap()).is_err());
        assert!(json_to_tables("t", &Json::parse("[]").unwrap()).is_err());
        assert!(json_to_tables("t", &Json::parse("[1, 2]").unwrap()).is_err());
    }

    #[test]
    fn scalar_typing() {
        assert_eq!(parse_scalar("42"), Value::Int(42));
        assert_eq!(parse_scalar("4.5"), Value::Float(4.5));
        assert_eq!(parse_scalar("true"), Value::Bool(true));
        assert_eq!(parse_scalar("hello"), Value::Str("hello".into()));
        assert_eq!(parse_scalar("  "), Value::Null);
    }
}
