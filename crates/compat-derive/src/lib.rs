//! Dependency-free `#[derive(Serialize)]` / `#[derive(Deserialize)]`.
//!
//! These derives target the in-repo JSON layer (`ecofl_compat::json`)
//! instead of serde: `Serialize` expands to an `impl ToJson`,
//! `Deserialize` to an `impl FromJson`. They are deliberately built on
//! nothing but the compiler-provided `proc_macro` API — no `syn`, no
//! `quote` — so the whole workspace builds with zero crates-io
//! dependencies.
//!
//! Supported shapes (everything the workspace actually derives):
//!
//! - structs with named fields → JSON objects keyed by field name,
//! - enums with unit variants → JSON strings (`"Variant"`),
//! - enums with single-field tuple (newtype) variants →
//!   `{"Variant": value}`.
//!
//! This matches serde's default externally-tagged representation, so
//! the JSON written under `target/ecofl-results/` and into a run store
//! keeps its shape. Generics, tuple structs, struct variants,
//! multi-field tuple variants, and `#[serde]` attributes are
//! intentionally unsupported and fail with a clear compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed view of a type definition: its name plus either struct fields
/// or enum variants.
struct TypeDef {
    name: String,
    kind: Kind,
}

enum Kind {
    /// Named fields of a struct.
    Struct(Vec<String>),
    /// Enum variants.
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    /// Single unnamed field.
    Newtype,
}

/// Advances past outer attributes (`#[...]`, including doc comments).
fn skip_attrs(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                // The bracketed attribute body.
                match tokens.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
                    other => panic!("compat-derive: malformed attribute near {other:?}"),
                }
            }
            _ => return,
        }
    }
}

/// Advances past a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    if let Some(TokenTree::Ident(id)) = tokens.peek() {
        if id.to_string() == "pub" {
            tokens.next();
            if let Some(TokenTree::Group(g)) = tokens.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    tokens.next();
                }
            }
        }
    }
}

/// Parses the named fields inside a brace group: returns field names,
/// skipping attributes, visibility, and the (arbitrary) type tokens.
fn parse_named_fields(group: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut tokens = group.into_iter().peekable();
    loop {
        skip_attrs(&mut tokens);
        skip_vis(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("compat-derive: expected field name, found {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("compat-derive: expected ':' after field `{name}`, found {other:?}"),
        }
        // Skip the type: consume until a ',' at angle-bracket depth 0.
        let mut depth = 0i32;
        for tok in tokens.by_ref() {
            match &tok {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
        }
        fields.push(name);
    }
    fields
}

fn parse_variants(group: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = group.into_iter().peekable();
    loop {
        skip_attrs(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("compat-derive: expected variant name, found {other:?}"),
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                panic!("compat-derive: struct variant `{name}` is unsupported")
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner = g.stream();
                tokens.next();
                // A single unnamed field has no ',' at depth 0.
                let mut depth = 0i32;
                let mut commas = 0usize;
                for tok in inner {
                    match &tok {
                        TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => commas += 1,
                        _ => {}
                    }
                }
                assert!(
                    commas == 0,
                    "compat-derive: multi-field tuple variant `{name}` is unsupported"
                );
                VariantShape::Newtype
            }
            _ => VariantShape::Unit,
        };
        // Skip to the next variant (past a possible discriminant).
        for tok in tokens.by_ref() {
            if let TokenTree::Punct(p) = &tok {
                if p.as_char() == ',' {
                    break;
                }
            }
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn parse_type_def(input: TokenStream) -> TypeDef {
    let mut tokens = input.into_iter().peekable();
    skip_attrs(&mut tokens);
    skip_vis(&mut tokens);
    let keyword = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("compat-derive: expected `struct` or `enum`, found {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("compat-derive: expected type name, found {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        assert!(
            p.as_char() != '<',
            "compat-derive: generic type `{name}` is unsupported"
        );
    }
    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        other => panic!(
            "compat-derive: `{name}` must have a braced body (tuple/unit \
             structs are unsupported), found {other:?}"
        ),
    };
    let kind = match keyword.as_str() {
        "struct" => Kind::Struct(parse_named_fields(body)),
        "enum" => Kind::Enum(parse_variants(body)),
        other => panic!("compat-derive: cannot derive for `{other}`"),
    };
    TypeDef { name, kind }
}

/// Derives `ecofl_compat::json::ToJson` (serde-compatible JSON shape).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let def = parse_type_def(input);
    let name = &def.name;
    let body = match &def.kind {
        Kind::Struct(fields) => {
            let mut inserts = String::new();
            for f in fields {
                inserts.push_str(&format!(
                    "obj.insert(\"{f}\", ::ecofl_compat::json::ToJson::to_json(&self.{f}));\n"
                ));
            }
            format!("let mut obj = ::ecofl_compat::json::Value::empty_object();\n{inserts}obj")
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::ecofl_compat::json::Value::String(\"{vn}\".to_string()),\n"
                    )),
                    VariantShape::Newtype => arms.push_str(&format!(
                        "{name}::{vn}(x) => {{\n\
                         let mut obj = ::ecofl_compat::json::Value::empty_object();\n\
                         obj.insert(\"{vn}\", ::ecofl_compat::json::ToJson::to_json(x));\nobj\n}}\n"
                    )),
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::ecofl_compat::json::ToJson for {name} {{\n\
         fn to_json(&self) -> ::ecofl_compat::json::Value {{\n{body}\n}}\n}}\n"
    )
    .parse()
    .expect("compat-derive: generated ToJson impl must parse")
}

/// Derives `ecofl_compat::json::FromJson` (serde-compatible JSON shape).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let def = parse_type_def(input);
    let name = &def.name;
    let body = match &def.kind {
        Kind::Struct(fields) => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!(
                    "{f}: ::ecofl_compat::json::field(v, \"{f}\", \"{name}\")?,\n"
                ));
            }
            format!("::std::result::Result::Ok({name} {{\n{inits}}})")
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => unit_arms.push_str(&format!(
                        "\"{vn}\" => return ::std::result::Result::Ok({name}::{vn}),\n"
                    )),
                    VariantShape::Newtype => tagged_arms.push_str(&format!(
                        "\"{vn}\" => return ::std::result::Result::Ok({name}::{vn}(\
                         ::ecofl_compat::json::FromJson::from_json(inner)?)),\n"
                    )),
                }
            }
            format!(
                "if let ::std::option::Option::Some(s) = v.as_str() {{\n\
                 match s {{\n{unit_arms}_ => {{}}\n}}\n}}\n\
                 if let ::std::option::Option::Some((tag, inner)) = v.as_singleton_object() {{\n\
                 match tag {{\n{tagged_arms}_ => {{}}\n}}\n}}\n\
                 ::std::result::Result::Err(::ecofl_compat::json::JsonError::new(\
                 format!(\"unknown {name} variant: {{v:?}}\")))"
            )
        }
    };
    format!(
        "impl ::ecofl_compat::json::FromJson for {name} {{\n\
         fn from_json(v: &::ecofl_compat::json::Value) \
         -> ::std::result::Result<Self, ::ecofl_compat::json::JsonError> {{\n{body}\n}}\n}}\n"
    )
    .parse()
    .expect("compat-derive: generated FromJson impl must parse")
}
