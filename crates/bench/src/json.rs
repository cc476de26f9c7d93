//! Minimal hand-rolled JSON field extraction.
//!
//! This environment has no serialization crates, so every artifact in the
//! workspace writes one canonical JSON shape by hand and reads it back
//! with these scanners. They are **not** a general JSON parser: they find
//! a named field in one object's text and slice its value out, tolerating
//! unknown fields (forward compatibility) and absent ones (legacy
//! artifacts).

/// Splits `body` into the interiors of its top-level `{...}` objects,
/// string-aware: braces inside quoted values (e.g. a mode named
/// `"router{2}"`) do not terminate an object.
pub fn split_objects(body: &str) -> Vec<&str> {
    let mut objects = Vec::new();
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    let mut depth = 0usize;
    for (i, c) in body.char_indices() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i + 1);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        objects.push(&body[s..i]);
                    }
                }
            }
            _ => {}
        }
    }
    objects
}

/// The string value of field `name` in `obj` (one object's interior
/// text), unescaped. `None` when absent or not a string.
pub fn field_str(obj: &str, name: &str) -> Option<String> {
    let tag = format!("\"{name}\"");
    let at = obj.find(&tag)? + tag.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    // Scan to the first *unescaped* quote, unescaping as we go.
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
}

/// The numeric value of field `name` in `obj`. `None` when absent or
/// unparseable.
pub fn field_num(obj: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\"");
    let at = obj.find(&tag)? + tag.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The raw `[...]` text (brackets included) of array field `name` in
/// `obj`, bracket-balanced and string-aware — nested arrays like
/// `[[2,1],[3,1]]` come back whole. `None` when absent or not an array.
pub fn field_array<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\"");
    let at = obj.find(&tag)? + tag.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    if !rest.starts_with('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Every number in `text`, in order — the companion to [`field_array`]
/// for numeric arrays (nested structure is flattened; `[[2,1],[3,1]]`
/// yields `[2, 1, 3, 1]`).
pub fn numbers(text: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() || c == '-' {
            let start = i;
            i += 1;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+' {
                    i += 1;
                } else {
                    break;
                }
            }
            if let Ok(v) = text[start..i].parse() {
                out.push(v);
            }
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_and_tolerate_absence() {
        let obj = "\"mode\":\"fu\\\"sed\",\"batch\":8,\"steps_per_s\":123.5,\"neg\":-2e3";
        assert_eq!(field_str(obj, "mode").unwrap(), "fu\"sed");
        assert_eq!(field_num(obj, "batch"), Some(8.0));
        assert_eq!(field_num(obj, "steps_per_s"), Some(123.5));
        assert_eq!(field_num(obj, "neg"), Some(-2000.0));
        assert_eq!(field_str(obj, "missing"), None);
        assert_eq!(field_num(obj, "missing"), None);
        assert_eq!(field_num(obj, "mode"), None, "string is not a number");
    }

    #[test]
    fn arrays_slice_out_balanced_and_nested() {
        let obj = "\"buckets\":[0,3,1],\"dist\":[[2,1],[3,1]],\"modes\":[\"a]b\"],\"x\":1";
        assert_eq!(field_array(obj, "buckets"), Some("[0,3,1]"));
        assert_eq!(field_array(obj, "dist"), Some("[[2,1],[3,1]]"));
        assert_eq!(field_array(obj, "modes"), Some("[\"a]b\"]"), "brackets in strings ignored");
        assert_eq!(field_array(obj, "x"), None, "scalar is not an array");
        assert_eq!(numbers(field_array(obj, "dist").unwrap()), vec![2.0, 1.0, 3.0, 1.0]);
    }

    #[test]
    fn split_objects_handles_nesting_and_strings() {
        let body = "{\"a\":1},{\"mode\":\"router{2}\"},{\"nested\":{\"x\":2}}";
        let objs = split_objects(body);
        assert_eq!(objs.len(), 3);
        assert!(objs[1].contains("router{2}"));
        assert!(objs[2].contains("\"x\":2"), "nested object stays inside its parent");
    }
}
