//! `#[derive(Serialize, Deserialize)]` for the serde stand-in, parsed by hand
//! from the token stream (no `syn`/`quote` offline). Supports what the
//! repository derives on: non-generic structs (named, tuple, unit) and enums
//! (unit, tuple and struct variants), with no `#[serde(..)]` attributes.
//! Anything else is a compile error naming the limit.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

enum Item {
    Struct(String, Fields),
    Enum(String, Vec<(String, Fields)>),
}

/// Splits a token list at the commas that are not inside `<..>` (groups are
/// single tokens already), dropping empty pieces.
fn split_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut angle = 0i32;
    let mut prev = ' ';
    for t in tokens {
        if let TokenTree::Punct(p) = &t {
            let c = p.as_char();
            match c {
                '<' => angle += 1,
                '>' if prev != '-' => angle -= 1,
                ',' if angle == 0 => {
                    parts.push(Vec::new());
                    prev = c;
                    continue;
                }
                _ => {}
            }
            prev = c;
        } else {
            prev = ' ';
        }
        parts.last_mut().expect("parts starts non-empty").push(t);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// The tokens of `part` after its attributes and visibility.
fn strip_attrs_and_vis(part: &[TokenTree]) -> &[TokenTree] {
    let mut i = 0;
    loop {
        match (part.get(i), part.get(i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(_))) if p.as_char() == '#' => i += 2,
            (Some(TokenTree::Ident(id)), next) if id.to_string() == "pub" => {
                i += 1;
                if matches!(next, Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            _ => return &part[i..],
        }
    }
}

fn ident_at(tokens: &[TokenTree], i: usize) -> String {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string().trim_start_matches("r#").to_owned(),
        other => panic!("serde stand-in derive: expected an identifier, found {other:?}"),
    }
}

fn named_fields(body: TokenStream) -> Fields {
    Fields::Named(
        split_commas(body.into_iter().collect())
            .iter()
            .map(|f| ident_at(strip_attrs_and_vis(f), 0))
            .collect(),
    )
}

fn tuple_fields(body: TokenStream) -> Fields {
    Fields::Tuple(split_commas(body.into_iter().collect()).len())
}

fn fields_of(token: Option<&TokenTree>) -> Fields {
    match token {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => named_fields(g.stream()),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            tuple_fields(g.stream())
        }
        _ => Fields::Unit,
    }
}

fn parse(input: TokenStream) -> Item {
    let all: Vec<TokenTree> = input.into_iter().collect();
    let tokens = strip_attrs_and_vis(&all);
    let kind = ident_at(tokens, 0);
    let name = ident_at(tokens, 1);
    if matches!(tokens.get(2), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde stand-in derive: generic type `{name}` is not supported");
    }
    match kind.as_str() {
        "struct" => Item::Struct(name, fields_of(tokens.get(2))),
        "enum" => {
            let Some(TokenTree::Group(body)) = tokens.get(2) else {
                panic!("serde stand-in derive: enum `{name}` has no body");
            };
            let variants = split_commas(body.stream().into_iter().collect())
                .iter()
                .map(|v| {
                    let v = strip_attrs_and_vis(v);
                    (ident_at(v, 0), fields_of(v.get(1)))
                })
                .collect();
            Item::Enum(name, variants)
        }
        other => panic!("serde stand-in derive: `{other}` items are not supported"),
    }
}

const SER: &str = "::serde::Serialize::serialize";
const DE: &str = "::serde::Deserialize::deserialize(p)?";

/// Statements writing the fields, given how to name field `i` / `name`.
fn write_fields(fields: &Fields, access: impl Fn(&str) -> String) -> String {
    match fields {
        Fields::Unit => "w.raw(\"null\");".to_owned(),
        Fields::Tuple(1) => format!("{SER}({}, w);", access("0")),
        Fields::Tuple(n) => {
            let mut s = "w.raw(\"[\");".to_owned();
            for i in 0..*n {
                if i > 0 {
                    s += "w.raw(\",\");";
                }
                s += &format!("{SER}({}, w);", access(&i.to_string()));
            }
            s + "w.raw(\"]\");"
        }
        Fields::Named(names) => {
            let mut s = "w.raw(\"{\");".to_owned();
            for (i, n) in names.iter().enumerate() {
                s += &format!("w.field(\"{n}\", {}); {SER}({}, w);", i == 0, access(n));
            }
            s + "w.raw(\"}\");"
        }
    }
}

/// An expression reading the fields and building `path`.
fn read_fields(path: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => format!(
            "{{ if !p.eat_literal(\"null\") {{ return Err(p.error(\"expected null\")); }} {path} }}"
        ),
        Fields::Tuple(1) => format!("{path}({DE})"),
        Fields::Tuple(n) => {
            let mut s = "{ p.expect(b'[')?;".to_owned();
            for i in 0..*n {
                if i > 0 {
                    s += "p.expect(b',')?;";
                }
                s += &format!("let f{i} = {DE};");
            }
            let args: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
            s + &format!("p.expect(b']')?; {path}({}) }}", args.join(","))
        }
        Fields::Named(names) => {
            let mut s = "{".to_owned();
            for n in names {
                s += &format!("let mut f_{n} = None;");
            }
            s += "p.expect(b'{')?; let mut first = true;\
                  while p.next_element(b'}', &mut first)? {\
                  let key = p.string()?; p.expect(b':')?;\
                  match key.as_str() {";
            for n in names {
                s += &format!("\"{n}\" => f_{n} = Some({DE}),");
            }
            s += "_ => p.skip_value()?, } }";
            s += &format!("{path} {{");
            for n in names {
                s += &format!(
                    "{n}: match f_{n} {{ Some(v) => v, None => ::serde::Deserialize::missing(\"{n}\")? }},"
                );
            }
            s + "} }"
        }
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse(input) {
        Item::Struct(name, fields) => {
            let body = write_fields(&fields, |f| format!("&self.{f}"));
            (name, body)
        }
        Item::Enum(name, variants) => {
            let mut arms = String::new();
            for (v, fields) in &variants {
                arms += &match fields {
                    Fields::Unit => format!("{name}::{v} => w.string(\"{v}\"),"),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        format!(
                            "{name}::{v}({}) => {{ w.raw(\"{{\"); w.field(\"{v}\", true); {} w.raw(\"}}\"); }}",
                            binds.join(","),
                            write_fields(fields, |f| format!("f{f}"))
                        )
                    }
                    Fields::Named(names) => format!(
                        "{name}::{v} {{ {} }} => {{ w.raw(\"{{\"); w.field(\"{v}\", true); {} w.raw(\"}}\"); }}",
                        names
                            .iter()
                            .map(|n| format!("{n}: f_{n}"))
                            .collect::<Vec<_>>()
                            .join(","),
                        write_fields(fields, |f| format!("f_{f}"))
                    ),
                };
            }
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\
           fn serialize(&self, w: &mut ::serde::json::Writer) {{ {body} }}\
         }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse(input) {
        Item::Struct(name, fields) => {
            let body = format!("Ok({})", read_fields(&name, &fields));
            (name, body)
        }
        Item::Enum(name, variants) => {
            let unknown = "other => return Err(::serde::json::Error::new(\
                           format!(\"unknown variant `{other}`\"))),";
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (v, fields) in &variants {
                if matches!(fields, Fields::Unit) {
                    unit_arms += &format!("\"{v}\" => {name}::{v},");
                }
                tagged_arms += &format!(
                    "\"{v}\" => {},",
                    read_fields(&format!("{name}::{v}"), fields)
                );
            }
            // A bare string is a unit variant; an enum without any skips the
            // branch, so the string fails at the `{` below.
            let unit_branch = if unit_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "if p.peek() == Some(b'\"') {{\
                       let tag = p.string()?;\
                       return Ok(match tag.as_str() {{ {unit_arms} {unknown} }});\
                     }}"
                )
            };
            let body = format!(
                "{unit_branch}\
                 p.expect(b'{{')?; let tag = p.string()?; p.expect(b':')?;\
                 let value = match tag.as_str() {{ {tagged_arms} {unknown} }};\
                 p.expect(b'}}')?; Ok(value)"
            );
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\
           fn deserialize(p: &mut ::serde::json::Parser<'_>) -> ::std::result::Result<Self, ::serde::json::Error> {{ {body} }}\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
