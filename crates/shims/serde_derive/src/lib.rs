//! `#[derive(Serialize, Deserialize)]` for the workspace's offline `serde`
//! shim.
//!
//! The build container has no crates.io access, so this crate implements the
//! two derives directly on `proc_macro::TokenStream` (no `syn`/`quote`).
//! Supported shapes — which cover every type the workspace derives on:
//!
//! * structs with named fields (`struct S { a: T, b: U }`),
//! * unit structs,
//! * enums whose variants are all unit variants (`enum E { A, B }`) —
//!   serialized as the variant-name string, matching serde's external
//!   representation for C-like enums.
//!
//! Tuple structs, generic types and data-carrying enum variants are rejected
//! with a compile error naming the limitation.
//!
//! The generated impls drive the shim's streaming `serde::Serializer` and
//! `serde::Deserializer` directly. A struct writes its fields in sorted key
//! order, so its bytes do not depend on declaration order; it reads its
//! fields in any order, keeps the last value of a repeated key, skips
//! unknown keys, and reads an omitted `Option` field as `None`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// Named-field struct with the listed field identifiers.
    Struct { name: String, fields: Vec<String> },
    /// Unit struct.
    UnitStruct { name: String },
    /// Enum with only unit variants.
    Enum { name: String, variants: Vec<String> },
}

/// Derives `serde::Serialize` (shim) for named-field structs, unit structs
/// and unit-variant enums.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_shape(input) {
        Ok(shape) => gen_serialize(&shape).parse().unwrap(),
        Err(msg) => compile_error(&msg),
    }
}

/// Derives `serde::Deserialize` (shim) for named-field structs, unit structs
/// and unit-variant enums.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_shape(input) {
        Ok(shape) => gen_deserialize(&shape).parse().unwrap(),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({:?});", msg).parse().unwrap()
}

/// Parses the item the derive is attached to into one of the supported
/// shapes.
fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let mut tokens = input.into_iter().peekable();

    // Skip outer attributes (`#[...]`) and visibility (`pub`, `pub(...)`).
    let kind = loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // Consume the bracket group of the attribute.
                match tokens.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
                    _ => return Err("malformed attribute before item".into()),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                return Err(format!("serde shim derive: unexpected `{s}` before item"));
            }
            Some(other) => {
                return Err(format!("serde shim derive: unexpected token `{other}`"));
            }
            None => return Err("serde shim derive: empty item".into()),
        }
    };

    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde shim derive: missing item name".into()),
    };

    // Reject generics: the shim only derives on concrete types.
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive does not support generic type `{name}`"
            ));
        }
    }

    match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if kind == "struct" {
                Ok(Shape::Struct {
                    name,
                    fields: parse_named_fields(g.stream())?,
                })
            } else {
                Ok(Shape::Enum {
                    name,
                    variants: parse_unit_variants(g.stream())?,
                })
            }
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' && kind == "struct" => {
            Ok(Shape::UnitStruct { name })
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Err(format!(
            "serde shim derive does not support tuple struct `{name}`"
        )),
        _ => Err(format!("serde shim derive: malformed body of `{name}`")),
    }
}

/// Extracts field names from the brace group of a named-field struct.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        // Skip attributes and visibility on the field.
        match tokens.peek() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next(); // the [...] group
                continue;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
                continue;
            }
            _ => {}
        }
        // Field name.
        match tokens.next() {
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            Some(other) => return Err(format!("expected field name, got `{other}`")),
            None => break,
        }
        // Expect `:` then the type; skip type tokens up to a top-level comma.
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => return Err("expected `:` after field name".into()),
        }
        let mut angle_depth = 0i32;
        for t in tokens.by_ref() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    Ok(fields)
}

/// Extracts variant names from the brace group of an enum, rejecting
/// data-carrying variants.
fn parse_unit_variants(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        match tokens.peek() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next();
                continue;
            }
            _ => {}
        }
        match tokens.next() {
            Some(TokenTree::Ident(id)) => variants.push(id.to_string()),
            Some(other) => return Err(format!("expected variant name, got `{other}`")),
            None => break,
        }
        match tokens.next() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "serde shim derive does not support data-carrying variant `{}`",
                    variants.last().unwrap()
                ));
            }
            Some(other) => return Err(format!("unexpected token `{other}` in enum body")),
        }
    }
    Ok(variants)
}

fn gen_serialize(shape: &Shape) -> String {
    let (name, body) = match shape {
        Shape::Struct { name, fields } => {
            // Fields go out in sorted key order, the order every object is
            // written in.
            let mut sorted: Vec<&String> = fields.iter().collect();
            sorted.sort();
            let writes: String = sorted
                .iter()
                .map(|f| format!("__s.field({f:?}, &self.{f});\n"))
                .collect();
            (
                name,
                format!("__s.begin_object();\n{writes}__s.end_object();"),
            )
        }
        Shape::UnitStruct { name } => (name, "__s.begin_object();\n__s.end_object();".into()),
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => {v:?},\n"))
                .collect();
            (name, format!("__s.str(match self {{ {arms} }});"))
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n\
             fn serialize(&self, __s: &mut serde::Serializer) {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

fn gen_deserialize(shape: &Shape) -> String {
    let (name, body) = match shape {
        Shape::Struct { name, fields } => {
            // Each field's slot takes the last value the input gives it;
            // unknown keys are skipped, and a field the input leaves out
            // takes the value its type gives an absent field.
            let slots: String = fields
                .iter()
                .map(|f| format!("let mut __field_{f} = None;\n"))
                .collect();
            let arms: String = fields
                .iter()
                .map(|f| {
                    format!("{f:?} => __field_{f} = Some(serde::Deserialize::deserialize(__d)?),\n")
                })
                .collect();
            let inits: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: match __field_{f} {{\n\
                             Some(v) => v,\n\
                             None => serde::Deserialize::absent_field({name:?}, {f:?})?,\n\
                         }},\n"
                    )
                })
                .collect();
            (
                name,
                format!(
                    "{slots}\
                     __d.begin_object()?;\n\
                     while let Some(__key) = __d.next_key()? {{\n\
                         match &*__key {{\n\
                             {arms}\
                             _ => __d.skip()?,\n\
                         }}\n\
                     }}\n\
                     Ok({name} {{ {inits} }})"
                ),
            )
        }
        Shape::UnitStruct { name } => (
            name,
            format!(
                "__d.begin_object()?;\n\
                 while __d.next_key()?.is_some() {{\n\
                     __d.skip()?;\n\
                 }}\n\
                 Ok({name})"
            ),
        ),
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{v:?} => Ok({name}::{v}),\n"))
                .collect();
            (
                name,
                format!(
                    "match &*__d.str()? {{\n\
                         {arms}\
                         other => Err(serde::Error::custom(format!(\n\
                             \"unknown variant `{{other}}` of {name}\"\n\
                         ))),\n\
                     }}"
                ),
            )
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n\
             fn deserialize(__d: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
