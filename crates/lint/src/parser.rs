//! A tolerant recursive-descent parser over the [`crate::lexer`] token
//! stream, producing the [`crate::ast`] used by the analysis passes.
//!
//! Design constraints, in order:
//!
//! 1. **Never fail, never hang.** Real workspace sources must always
//!    produce an AST. Unknown constructs degrade to [`Expr::Other`] /
//!    [`ItemKind::Other`] with correct line anchoring; every loop has a
//!    progress guarantee (the cursor always advances on the error path).
//! 2. **Model what the passes read.** Guard scopes, call/method-call
//!    trees, bindings, casts and binary operators are parsed precisely;
//!    types, patterns and macro bodies are skipped with balanced-delimiter
//!    scans.
//! 3. **No external dependencies** — the registry is offline, so `syn` is
//!    not an option (the same constraint that produced `compat/`).
//!
//! Known ambiguities are resolved with the standard restrictions: `{`
//! after a path is a struct literal only outside condition/scrutinee
//! position, and `<`/`>` balance counts the lexer's merged `<<`/`>>`
//! shift tokens as two.

use crate::ast::{Block, Expr, File, Item, ItemKind, Lit, Stmt};
use crate::lexer::{Comment, Lexed, Tok, Token};

/// Parses one lexed file. `comments` supplies the `// imcf-lint: blocking`
/// marker annotations (matched by adjacency to the item's first line).
pub fn parse_file(lexed: &Lexed) -> File {
    let mut p = Parser {
        toks: &lexed.tokens,
        pos: 0,
        fuel: lexed.tokens.len().saturating_mul(8) + 1024,
    };
    let items = p.parse_items(None);
    let mut file = File { items };
    annotate_blocking(&mut file.items, &lexed.comments);
    file
}

/// Marks items carrying the `// imcf-lint: blocking` marker comment on
/// the line directly above them (the compile-safe spelling of
/// `#[imcf_lint::blocking]`; see `DESIGN.md` §14).
fn annotate_blocking(items: &mut [Item], comments: &[Comment]) {
    for item in items {
        if comments.iter().any(|c| {
            !c.is_doc && c.end_line + 1 >= item.line && c.line <= item.line && {
                let t = c.text.trim_start_matches('/').trim();
                t.starts_with("imcf-lint:") && t["imcf-lint:".len()..].trim() == "blocking"
            }
        }) {
            item.blocking = true;
        }
        match &mut item.kind {
            ItemKind::Mod(nested) | ItemKind::Impl(nested) | ItemKind::Trait(nested) => {
                annotate_blocking(nested, comments);
            }
            _ => {}
        }
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Hard progress bound: decremented on every token consumed or error
    /// recovery step; guarantees termination on adversarial input.
    fuel: usize,
}

/// An attribute's flattened identifier list plus blocking/test analysis.
#[derive(Default)]
struct Attrs {
    is_test: bool,
    blocking: bool,
    first_line: Option<u32>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, ahead: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + ahead).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn prev_line(&self) -> u32 {
        self.toks
            .get(self.pos.saturating_sub(1))
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos).map(|t| &t.tok);
        if t.is_some() {
            self.pos += 1;
        }
        self.fuel = self.fuel.saturating_sub(1);
        t
    }

    fn out_of_fuel(&self) -> bool {
        self.fuel == 0
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Tok::Punct(q)) if *q == p)
    }

    fn at_ident(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if self.at_ident(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident_text(&self) -> Option<&'a str> {
        match self.peek() {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Skips tokens until `stop` at delimiter depth 0 (braces, brackets,
    /// parens all balanced; angle depth counts `<<`/`>>` double). The stop
    /// token is not consumed. Used for patterns, types, generics.
    fn skip_until(&mut self, stops: &[&str]) {
        let mut paren = 0i32;
        let mut brace = 0i32;
        let mut bracket = 0i32;
        let mut angle = 0i32;
        while let Some(tok) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            if let Tok::Punct(p) = tok {
                if paren == 0 && brace == 0 && bracket == 0 && angle <= 0 && stops.contains(p) {
                    return;
                }
                match *p {
                    "(" => paren += 1,
                    ")" => {
                        if paren == 0 {
                            return; // closing an outer delimiter
                        }
                        paren -= 1;
                    }
                    "{" => brace += 1,
                    "}" => {
                        if brace == 0 {
                            return;
                        }
                        brace -= 1;
                    }
                    "[" => bracket += 1,
                    "]" => {
                        if bracket == 0 {
                            return;
                        }
                        bracket -= 1;
                    }
                    "<" => angle += 1,
                    ">" => angle = (angle - 1).max(0),
                    "<<" => angle += 2,
                    ">>" => angle = (angle - 2).max(0),
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Skips a balanced `(...)`, `[...]` or `{...}` group whose opener is
    /// under the cursor. No-op when the cursor is not at an opener.
    fn skip_group(&mut self) {
        let close = match self.peek() {
            Some(Tok::Punct("(")) => ")",
            Some(Tok::Punct("[")) => "]",
            Some(Tok::Punct("{")) => "}",
            _ => return,
        };
        let open = match self.peek() {
            Some(Tok::Punct(p)) => *p,
            _ => unreachable!(),
        };
        self.bump();
        let mut depth = 1i32;
        while let Some(tok) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            if let Tok::Punct(p) = tok {
                if *p == open {
                    depth += 1;
                } else if *p == close {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
            }
            self.bump();
        }
    }

    /// Skips a generics list whose `<` is under the cursor.
    fn skip_generics(&mut self) {
        if !self.at_punct("<") {
            return;
        }
        self.bump();
        let mut depth = 1i32;
        while let Some(tok) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            match tok {
                Tok::Punct("<") => depth += 1,
                Tok::Punct("<<") => depth += 2,
                Tok::Punct(">") => depth -= 1,
                Tok::Punct(">>") => depth -= 2,
                Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => {
                    self.skip_group();
                    continue;
                }
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    /// Parses items until `}` (inside a mod/impl/trait body) or EOF.
    fn parse_items(&mut self, closing: Option<&str>) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.out_of_fuel() || self.peek().is_none() {
                return items;
            }
            if let Some(close) = closing {
                if self.at_punct(close) {
                    return items;
                }
            }
            let before = self.pos;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.pos == before {
                // No progress: recover by force-consuming one token.
                self.bump();
            }
        }
    }

    /// Parses one item, or `None` when the cursor is not at something
    /// item-shaped (the caller recovers).
    fn parse_item(&mut self) -> Option<Item> {
        let start_line = self.line();
        let attrs = self.parse_attrs();
        let line = attrs.first_line.unwrap_or(start_line);

        // Visibility.
        if self.eat_ident("pub") && self.at_punct("(") {
            self.skip_group(); // pub(crate), pub(super), pub(in path)
        }
        // Leading fn qualifiers.
        while self.at_ident("const") || self.at_ident("async") || self.at_ident("unsafe") {
            // `const` might start a const *item*; only treat it as a
            // qualifier when `fn` follows (possibly after more qualifiers).
            if self.at_ident("const")
                && !matches!(self.peek_at(1), Some(Tok::Ident(k)) if k == "fn" || k == "unsafe" || k == "extern" || k == "async")
            {
                break;
            }
            self.bump();
        }
        if self.eat_ident("extern") {
            if matches!(self.peek(), Some(Tok::Str(_))) {
                self.bump(); // ABI string
            }
            if self.eat_ident("crate") {
                self.skip_until(&[";"]);
                self.eat_punct(";");
                return Some(self.finish_item(String::new(), line, attrs, ItemKind::Other));
            }
            if self.at_punct("{") {
                // extern block: treat contents as items.
                self.bump();
                let items = self.parse_items(Some("}"));
                self.eat_punct("}");
                return Some(self.finish_item(String::new(), line, attrs, ItemKind::Mod(items)));
            }
        }

        let kw = self.ident_text()?;
        match kw {
            "fn" => {
                self.bump();
                let name = match self.peek() {
                    Some(Tok::Ident(n)) => {
                        let n = n.clone();
                        self.bump();
                        n
                    }
                    _ => String::new(),
                };
                self.skip_generics();
                if self.at_punct("(") {
                    self.skip_group();
                }
                // Return type + where clause: skip to the body or `;`.
                self.skip_until(&["{", ";"]);
                if self.at_punct(";") {
                    self.bump();
                    return Some(self.finish_item(name, line, attrs, ItemKind::FnDecl));
                }
                let body = self.parse_block();
                Some(self.finish_item(name, line, attrs, ItemKind::Fn(body)))
            }
            "mod" => {
                self.bump();
                let name = match self.peek() {
                    Some(Tok::Ident(n)) => {
                        let n = n.clone();
                        self.bump();
                        n
                    }
                    _ => String::new(),
                };
                if self.at_punct("{") {
                    self.bump();
                    let items = self.parse_items(Some("}"));
                    self.eat_punct("}");
                    Some(self.finish_item(name, line, attrs, ItemKind::Mod(items)))
                } else {
                    self.eat_punct(";");
                    Some(self.finish_item(name, line, attrs, ItemKind::Other))
                }
            }
            "impl" => {
                self.bump();
                self.skip_generics();
                // Everything up to `{` is the (trait-for-)type header;
                // the self type is the first path segment after `for`
                // when present, else the first segment of the header.
                let mut type_name = String::new();
                let mut after_for = false;
                let mut found_for = false;
                while let Some(tok) = self.peek() {
                    match tok {
                        Tok::Punct("{") => break,
                        Tok::Punct(";") => {
                            // `impl Trait for Type;` is not real Rust;
                            // bail tolerantly.
                            self.bump();
                            return Some(self.finish_item(type_name, line, attrs, ItemKind::Other));
                        }
                        Tok::Ident(w) if w == "for" => {
                            after_for = true;
                            found_for = true;
                            type_name.clear();
                            self.bump();
                        }
                        Tok::Ident(w) if w == "where" => {
                            self.skip_until(&["{"]);
                            break;
                        }
                        Tok::Ident(w) => {
                            if type_name.is_empty() && (!found_for || after_for) {
                                type_name = w.clone();
                            }
                            self.bump();
                            if self.at_punct("<") {
                                self.skip_generics();
                            }
                        }
                        _ => {
                            self.bump();
                        }
                    }
                    if self.out_of_fuel() {
                        break;
                    }
                }
                if self.at_punct("{") {
                    self.bump();
                    let items = self.parse_items(Some("}"));
                    self.eat_punct("}");
                    Some(self.finish_item(type_name, line, attrs, ItemKind::Impl(items)))
                } else {
                    Some(self.finish_item(type_name, line, attrs, ItemKind::Other))
                }
            }
            "trait" => {
                self.bump();
                let name = match self.peek() {
                    Some(Tok::Ident(n)) => {
                        let n = n.clone();
                        self.bump();
                        n
                    }
                    _ => String::new(),
                };
                self.skip_until(&["{", ";"]);
                if self.at_punct("{") {
                    self.bump();
                    let items = self.parse_items(Some("}"));
                    self.eat_punct("}");
                    Some(self.finish_item(name, line, attrs, ItemKind::Trait(items)))
                } else {
                    self.eat_punct(";");
                    Some(self.finish_item(name, line, attrs, ItemKind::Other))
                }
            }
            "struct" | "enum" | "union" => {
                self.bump();
                let name = match self.peek() {
                    Some(Tok::Ident(n)) => {
                        let n = n.clone();
                        self.bump();
                        n
                    }
                    _ => String::new(),
                };
                self.skip_until(&["{", ";", "("]);
                match self.peek() {
                    Some(Tok::Punct("{")) | Some(Tok::Punct("(")) => {
                        self.skip_group();
                        self.eat_punct(";"); // tuple struct trailing `;`
                    }
                    _ => {
                        self.eat_punct(";");
                    }
                }
                Some(self.finish_item(name, line, attrs, ItemKind::Other))
            }
            "use" | "type" | "static" | "const" => {
                let is_static = kw == "static";
                self.bump();
                let mutable = is_static && self.eat_ident("mut");
                let name = match self.peek() {
                    Some(Tok::Ident(n)) => n.clone(),
                    _ => String::new(),
                };
                // Skip to `;`, balancing braces (const exprs with blocks).
                self.skip_until(&[";"]);
                self.eat_punct(";");
                let _ = mutable;
                Some(self.finish_item(name, line, attrs, ItemKind::Other))
            }
            "macro_rules" => {
                self.bump();
                self.eat_punct("!");
                let name = match self.peek() {
                    Some(Tok::Ident(n)) => {
                        let n = n.clone();
                        self.bump();
                        n
                    }
                    _ => String::new(),
                };
                self.skip_group(); // the `{ ... }` rules body, untouched
                Some(self.finish_item(name, line, attrs, ItemKind::Other))
            }
            _ => None,
        }
    }

    fn finish_item(&self, name: String, line: u32, attrs: Attrs, kind: ItemKind) -> Item {
        Item {
            name,
            line,
            end_line: self.prev_line(),
            is_test: attrs.is_test,
            blocking: attrs.blocking,
            kind,
        }
    }

    /// Parses `#[...]` attributes (outer and inner), flattening each to
    /// its identifier list for test/blocking classification.
    fn parse_attrs(&mut self) -> Attrs {
        let mut out = Attrs::default();
        loop {
            if !self.at_punct("#") {
                return out;
            }
            let line = self.line();
            self.bump();
            self.eat_punct("!"); // inner attribute
            if !self.at_punct("[") {
                return out;
            }
            out.first_line.get_or_insert(line);
            // Collect idents to the matching `]`.
            self.bump();
            let mut depth = 1i32;
            let mut idents: Vec<&str> = Vec::new();
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::Punct("[") => depth += 1,
                    Tok::Punct("]") => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            break;
                        }
                    }
                    Tok::Ident(s) => idents.push(s.as_str()),
                    _ => {}
                }
                self.bump();
                if self.out_of_fuel() {
                    break;
                }
            }
            let has = |w: &str| idents.contains(&w);
            if has("test") && !has("not") {
                out.is_test = true;
            }
            if idents.first() == Some(&"imcf_lint") && has("blocking") {
                out.blocking = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Blocks and statements
    // ------------------------------------------------------------------

    /// Parses a `{ ... }` block whose opening brace is under the cursor.
    /// Tolerant: if the cursor is not at `{`, returns an empty block.
    fn parse_block(&mut self) -> Block {
        let line = self.line();
        if !self.eat_punct("{") {
            return Block {
                stmts: Vec::new(),
                line,
                end_line: line,
            };
        }
        let mut stmts = Vec::new();
        loop {
            if self.out_of_fuel() || self.peek().is_none() {
                break;
            }
            if self.at_punct("}") {
                self.bump();
                break;
            }
            if self.eat_punct(";") {
                continue;
            }
            let before = self.pos;
            if let Some(stmt) = self.parse_stmt() {
                stmts.push(stmt);
            }
            if self.pos == before {
                self.bump(); // recovery: always progress
            }
        }
        Block {
            stmts,
            line,
            end_line: self.prev_line(),
        }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        // Nested items first (they share keywords with nothing else).
        if let Some(kw) = self.ident_text() {
            let itemish = matches!(
                kw,
                "fn" | "struct"
                    | "enum"
                    | "union"
                    | "trait"
                    | "impl"
                    | "mod"
                    | "use"
                    | "type"
                    | "static"
                    | "macro_rules"
            ) || (kw == "const"
                && matches!(self.peek_at(1), Some(Tok::Ident(n)) if n != "fn")
                && !matches!(self.peek_at(1), Some(Tok::Punct(_))))
                || (kw == "pub");
            // `const fn` nested is still an item; `const { ... }` blocks
            // and `const` closures are expressions — the parse_item call
            // below handles `const fn` via qualifier logic.
            if itemish
                || matches!(kw, "const" if matches!(self.peek_at(1), Some(Tok::Ident(n)) if n == "fn"))
            {
                let before = self.pos;
                if let Some(item) = self.parse_item() {
                    return Some(Stmt::Item(item));
                }
                self.pos = before;
            }
        }
        if self.at_punct("#") {
            // Statement-level attribute (e.g. `#[allow]` on a stmt):
            // parse and discard, then parse the statement it decorates.
            let _ = self.parse_attrs();
            return self.parse_stmt();
        }
        if self.at_ident("let") {
            return Some(self.parse_let());
        }
        let expr = self.parse_expr(0, true);
        self.eat_punct(";");
        Some(Stmt::Expr(expr))
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // let
        self.eat_ident("mut");
        let name = match self.peek() {
            Some(Tok::Ident(n))
                if matches!(
                    self.peek_at(1),
                    Some(Tok::Punct("=")) | Some(Tok::Punct(":")) | Some(Tok::Punct(";"))
                ) || matches!(self.peek_at(1), Some(Tok::Ident(k)) if k == "else") =>
            {
                let n = n.clone();
                self.bump();
                Some(n)
            }
            _ => {
                // Destructuring or ref pattern: skip it.
                self.skip_until(&["=", ";", ":"]);
                None
            }
        };
        let mut ty = String::new();
        if self.eat_punct(":") {
            let ty_start = self.pos;
            self.skip_type();
            ty = self.toks[ty_start..self.pos]
                .iter()
                .filter_map(|t| match &t.tok {
                    Tok::Ident(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect::<Vec<_>>()
                .join(" ");
        }
        let mut init = None;
        let mut else_block = None;
        if self.eat_punct("=") {
            init = Some(self.parse_expr(0, true));
            if self.eat_ident("else") {
                else_block = Some(self.parse_block());
            }
        }
        self.eat_punct(";");
        Stmt::Let {
            name,
            ty,
            init,
            else_block,
            line,
        }
    }

    /// Skips a type: path segments, references, balanced groups and
    /// generics, stopping at `=`, `;`, `,`, `)` or `{` at depth 0.
    fn skip_type(&mut self) {
        let mut depth_paren = 0i32;
        let mut depth_bracket = 0i32;
        let mut angle = 0i32;
        while let Some(tok) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            match tok {
                Tok::Punct("=") | Tok::Punct(";") | Tok::Punct("{")
                    if depth_paren == 0 && depth_bracket == 0 && angle <= 0 =>
                {
                    return;
                }
                Tok::Punct(",") if depth_paren == 0 && depth_bracket == 0 && angle <= 0 => return,
                Tok::Punct("(") => depth_paren += 1,
                Tok::Punct(")") => {
                    if depth_paren == 0 {
                        return;
                    }
                    depth_paren -= 1;
                }
                Tok::Punct("[") => depth_bracket += 1,
                Tok::Punct("]") => {
                    if depth_bracket == 0 {
                        return;
                    }
                    depth_bracket -= 1;
                }
                Tok::Punct("<") => angle += 1,
                Tok::Punct("<<") => angle += 2,
                Tok::Punct(">") => angle -= 1,
                Tok::Punct(">>") => angle -= 2,
                _ => {}
            }
            self.bump();
        }
    }

    // ------------------------------------------------------------------
    // Expressions (Pratt)
    // ------------------------------------------------------------------

    /// Parses an expression with the given minimum binding power.
    /// `struct_ok` gates the `Path { ... }` struct-literal production
    /// (false in condition/scrutinee/for-iterator position).
    fn parse_expr(&mut self, min_bp: u8, struct_ok: bool) -> Expr {
        let mut lhs = self.parse_prefix(struct_ok);
        loop {
            if self.out_of_fuel() {
                return lhs;
            }
            // Postfix operators bind tightest.
            match self.peek() {
                Some(Tok::Punct(".")) => {
                    let line = self.line();
                    match (self.peek_at(1), self.peek_at(2)) {
                        (Some(Tok::Ident(name)), _) => {
                            let name = name.clone();
                            self.bump(); // .
                            self.bump(); // ident
                            if self.at_punct("::") {
                                // turbofish: .parse::<usize>(
                                self.bump();
                                self.skip_generics();
                            }
                            if self.at_punct("(") {
                                let args = self.parse_call_args();
                                lhs = Expr::MethodCall {
                                    recv: Box::new(lhs),
                                    method: name,
                                    args,
                                    line,
                                };
                            } else {
                                lhs = Expr::Field {
                                    recv: Box::new(lhs),
                                    name,
                                    line,
                                };
                            }
                            continue;
                        }
                        (Some(Tok::Int(n)), _) | (Some(Tok::Float(n)), _) => {
                            let n = n.clone();
                            self.bump();
                            self.bump();
                            lhs = Expr::Field {
                                recv: Box::new(lhs),
                                name: n,
                                line,
                            };
                            continue;
                        }
                        _ => {}
                    }
                }
                Some(Tok::Punct("?")) => {
                    let line = self.line();
                    self.bump();
                    lhs = Expr::Try {
                        expr: Box::new(lhs),
                        line,
                    };
                    continue;
                }
                Some(Tok::Punct("(")) => {
                    let line = self.line();
                    let args = self.parse_call_args();
                    lhs = Expr::Call {
                        callee: Box::new(lhs),
                        args,
                        line,
                    };
                    continue;
                }
                Some(Tok::Punct("[")) => {
                    let line = self.line();
                    self.bump();
                    let index = self.parse_expr(0, true);
                    // Tolerate `a[b; c]` / trailing junk.
                    self.skip_until(&["]"]);
                    self.eat_punct("]");
                    lhs = Expr::Index {
                        recv: Box::new(lhs),
                        index: Box::new(index),
                        line,
                    };
                    continue;
                }
                Some(Tok::Ident(kw)) if kw == "as" => {
                    let line = self.line();
                    self.bump();
                    let ty_start = self.pos;
                    self.skip_cast_type();
                    let ty = self.toks[ty_start..self.pos]
                        .iter()
                        .filter_map(|t| match &t.tok {
                            Tok::Ident(s) => Some(s.as_str()),
                            _ => None,
                        })
                        .collect::<Vec<_>>()
                        .join(" ");
                    lhs = Expr::Cast {
                        expr: Box::new(lhs),
                        ty,
                        line,
                    };
                    continue;
                }
                _ => {}
            }
            // Binary / assignment operators.
            let (op, bp, right_bp, is_assign) = match self.peek() {
                Some(Tok::Punct(p)) => match *p {
                    "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => {
                        (*p, 2u8, 1u8, true)
                    }
                    ".." | "..=" => (*p, 3, 4, false),
                    "||" => (*p, 5, 6, false),
                    "&&" => (*p, 7, 8, false),
                    "==" | "!=" | "<" | ">" | "<=" | ">=" => (*p, 9, 10, false),
                    "|" => (*p, 11, 12, false),
                    "^" => (*p, 13, 14, false),
                    "&" => (*p, 15, 16, false),
                    "<<" | ">>" => (*p, 17, 18, false),
                    "+" | "-" => (*p, 19, 20, false),
                    "*" | "/" | "%" => (*p, 21, 22, false),
                    _ => break,
                },
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            let line = self.line();
            self.bump();
            // Open ranges (`0..`): stop if no expression follows.
            if (op == ".." || op == "..=") && self.range_rhs_absent() {
                lhs = Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(Expr::Other { line }),
                    line,
                };
                continue;
            }
            let rhs = self.parse_expr(right_bp, struct_ok);
            lhs = if is_assign {
                Expr::Assign {
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                }
            } else {
                Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                }
            };
        }
        lhs
    }

    fn range_rhs_absent(&self) -> bool {
        matches!(
            self.peek(),
            None | Some(Tok::Punct(")"))
                | Some(Tok::Punct("]"))
                | Some(Tok::Punct("}"))
                | Some(Tok::Punct(","))
                | Some(Tok::Punct(";"))
                | Some(Tok::Punct("{"))
                | Some(Tok::Punct("="))
        )
    }

    /// `as`-cast target type: a path with generics / primitive, stopping
    /// before any operator that continues the expression.
    fn skip_cast_type(&mut self) {
        // &, *const/*mut prefixes
        while self.at_punct("&") || self.at_punct("*") {
            self.bump();
            self.eat_ident("const");
            self.eat_ident("mut");
        }
        loop {
            match self.peek() {
                Some(Tok::Ident(_)) => {
                    self.bump();
                    if self.at_punct("<") {
                        self.skip_generics();
                    }
                    if self.at_punct("::") {
                        self.bump();
                        continue;
                    }
                    return;
                }
                Some(Tok::Punct("(")) => {
                    self.skip_group();
                    return;
                }
                _ => return,
            }
        }
    }

    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct("(") {
            return args;
        }
        loop {
            if self.out_of_fuel() || self.peek().is_none() {
                return args;
            }
            if self.eat_punct(")") {
                return args;
            }
            if self.eat_punct(",") {
                continue;
            }
            let before = self.pos;
            args.push(self.parse_expr(0, true));
            if self.pos == before {
                self.bump();
            }
        }
    }

    fn parse_prefix(&mut self, struct_ok: bool) -> Expr {
        let line = self.line();
        match self.peek() {
            None => Expr::Other { line },
            Some(Tok::Int(_)) => {
                self.bump();
                Expr::Lit {
                    kind: Lit::Int,
                    line,
                }
            }
            Some(Tok::Float(_)) => {
                self.bump();
                Expr::Lit {
                    kind: Lit::Float,
                    line,
                }
            }
            Some(Tok::Str(s)) => {
                let s = s.clone();
                self.bump();
                Expr::Lit {
                    kind: Lit::Str(s),
                    line,
                }
            }
            Some(Tok::Char) => {
                self.bump();
                Expr::Lit {
                    kind: Lit::Char,
                    line,
                }
            }
            Some(Tok::Lifetime(_)) => {
                // Loop label: `'outer: loop { ... }`.
                self.bump();
                self.eat_punct(":");
                self.parse_prefix(struct_ok)
            }
            Some(Tok::Punct("&")) => {
                self.bump();
                self.eat_ident("mut");
                let expr = self.parse_expr(23, struct_ok);
                Expr::Ref {
                    expr: Box::new(expr),
                    line,
                }
            }
            Some(Tok::Punct("&&")) => {
                // `&&x` lexes as one token: double reference.
                self.bump();
                self.eat_ident("mut");
                let expr = self.parse_expr(23, struct_ok);
                Expr::Ref {
                    expr: Box::new(Expr::Ref {
                        expr: Box::new(expr),
                        line,
                    }),
                    line,
                }
            }
            Some(Tok::Punct("*")) | Some(Tok::Punct("!")) | Some(Tok::Punct("-")) => {
                self.bump();
                let expr = self.parse_expr(23, struct_ok);
                Expr::Unary {
                    expr: Box::new(expr),
                    line,
                }
            }
            Some(Tok::Punct("(")) => {
                self.bump();
                let mut exprs = Vec::new();
                loop {
                    if self.out_of_fuel() || self.peek().is_none() {
                        break;
                    }
                    if self.eat_punct(")") {
                        break;
                    }
                    if self.eat_punct(",") {
                        continue;
                    }
                    let before = self.pos;
                    exprs.push(self.parse_expr(0, true));
                    if self.pos == before {
                        self.bump();
                    }
                }
                Expr::Tuple { exprs, line }
            }
            Some(Tok::Punct("[")) => {
                self.bump();
                let mut exprs = Vec::new();
                loop {
                    if self.out_of_fuel() || self.peek().is_none() {
                        break;
                    }
                    if self.eat_punct("]") {
                        break;
                    }
                    if self.eat_punct(",") || self.eat_punct(";") {
                        continue;
                    }
                    let before = self.pos;
                    exprs.push(self.parse_expr(0, true));
                    if self.pos == before {
                        self.bump();
                    }
                }
                Expr::Array { exprs, line }
            }
            Some(Tok::Punct("{")) => Expr::Block(self.parse_block()),
            Some(Tok::Punct("|")) | Some(Tok::Punct("||")) => self.parse_closure(line),
            Some(Tok::Punct("..")) | Some(Tok::Punct("..=")) => {
                // Prefix range `..n`.
                self.bump();
                if self.range_rhs_absent() {
                    Expr::Other { line }
                } else {
                    let rhs = self.parse_expr(4, struct_ok);
                    Expr::Binary {
                        op: "..",
                        lhs: Box::new(Expr::Other { line }),
                        rhs: Box::new(rhs),
                        line,
                    }
                }
            }
            Some(Tok::Punct("::")) => {
                // Leading `::path`.
                self.bump();
                self.parse_path_expr(line, struct_ok)
            }
            Some(Tok::Punct("#")) => {
                // Expression-position attribute (rare); skip it.
                let _ = self.parse_attrs();
                self.parse_prefix(struct_ok)
            }
            Some(Tok::Ident(kw)) => match kw.as_str() {
                "if" => self.parse_if(line),
                "match" => self.parse_match(line),
                "while" => {
                    self.bump();
                    self.eat_ident("let");
                    // `while let pat = expr` — skip the pattern to `=`.
                    // For a plain `while cond`, this is a no-op because
                    // we only skip when `let` was present.
                    let cond = self.parse_cond();
                    let body = self.parse_block();
                    Expr::While {
                        cond: Box::new(cond),
                        body,
                        line,
                    }
                }
                "loop" => {
                    self.bump();
                    let body = self.parse_block();
                    Expr::Loop { body, line }
                }
                "for" => {
                    self.bump();
                    let pat = match (self.peek(), self.peek_at(1)) {
                        (Some(Tok::Ident(n)), Some(Tok::Ident(k))) if k == "in" && n != "mut" => {
                            let n = n.clone();
                            self.bump();
                            Some(n)
                        }
                        _ => {
                            // Complex pattern: skip to `in`.
                            while let Some(tok) = self.peek() {
                                if matches!(tok, Tok::Ident(k) if k == "in") {
                                    break;
                                }
                                if matches!(tok, Tok::Punct("{")) {
                                    break; // malformed; bail
                                }
                                self.bump();
                                if self.out_of_fuel() {
                                    break;
                                }
                            }
                            None
                        }
                    };
                    self.eat_ident("in");
                    let iter = self.parse_expr(0, false);
                    let body = self.parse_block();
                    Expr::ForLoop {
                        pat,
                        iter: Box::new(iter),
                        body,
                        line,
                    }
                }
                "unsafe" => {
                    self.bump();
                    Expr::Block(self.parse_block())
                }
                "return" | "break" => {
                    self.bump();
                    // `break 'label` labels.
                    if matches!(self.peek(), Some(Tok::Lifetime(_))) {
                        self.bump();
                    }
                    let expr = if matches!(
                        self.peek(),
                        None | Some(Tok::Punct(";"))
                            | Some(Tok::Punct("}"))
                            | Some(Tok::Punct(")"))
                            | Some(Tok::Punct(","))
                    ) {
                        None
                    } else {
                        Some(Box::new(self.parse_expr(0, struct_ok)))
                    };
                    Expr::Return { expr, line }
                }
                "continue" => {
                    self.bump();
                    if matches!(self.peek(), Some(Tok::Lifetime(_))) {
                        self.bump();
                    }
                    Expr::Return { expr: None, line }
                }
                "move" => {
                    self.bump();
                    if self.at_punct("|") || self.at_punct("||") {
                        self.parse_closure(line)
                    } else {
                        // `move { ... }` async-style block (not used
                        // in-tree); treat as block.
                        Expr::Block(self.parse_block())
                    }
                }
                "let" => {
                    // `let` in expression position: `if let`-chain member
                    // (`cond && let Some(x) = y`). Skip pattern, parse rhs.
                    self.bump();
                    self.skip_until(&["="]);
                    if self.eat_punct("=") {
                        let rhs = self.parse_expr(9, false);
                        return rhs;
                    }
                    Expr::Other { line }
                }
                _ => self.parse_path_expr(line, struct_ok),
            },
            Some(Tok::Punct(_)) => {
                // Unknown operator in prefix position: consume and mark.
                self.bump();
                Expr::Other { line }
            }
        }
    }

    fn parse_closure(&mut self, line: u32) -> Expr {
        // `||` is the whole empty parameter list; `|` opens one.
        if self.at_punct("||") {
            self.bump();
        } else {
            self.bump(); // opening |
            let mut depth = 0i32;
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::Punct("(") | Tok::Punct("[") | Tok::Punct("{") => {
                        self.skip_group();
                        continue;
                    }
                    Tok::Punct("<") => depth += 1,
                    Tok::Punct(">") => depth -= 1,
                    Tok::Punct("|") if depth <= 0 => {
                        self.bump();
                        break;
                    }
                    _ => {}
                }
                self.bump();
                if self.out_of_fuel() {
                    break;
                }
            }
        }
        // Optional `-> Ty` return annotation (body must then be a block).
        if self.eat_punct("->") {
            self.skip_until(&["{"]);
        }
        let body = self.parse_expr(0, true);
        Expr::Closure {
            body: Box::new(body),
            line,
        }
    }

    /// Condition position (`if`/`while` head): struct literals are off;
    /// `let` patterns in `if let`/`while let` have already been consumed
    /// or are handled by skipping to `=`.
    fn parse_cond(&mut self) -> Expr {
        // If a pattern is under the cursor (we came from `if let`/`while
        // let`), skip it to `=`.  Heuristic: conditions never start with
        // an uppercase path followed by `(` or `::`... — instead of
        // guessing, the callers consume `let` and we skip to `=` when an
        // `=` occurs before any `{` at depth 0.
        let save = self.pos;
        let mut depth = 0i32;
        let mut saw_eq = false;
        let mut k = self.pos;
        while let Some(t) = self.toks.get(k) {
            match &t.tok {
                Tok::Punct("(") | Tok::Punct("[") => depth += 1,
                Tok::Punct(")") | Tok::Punct("]") => depth -= 1,
                Tok::Punct("{") if depth == 0 => break,
                Tok::Punct("=") if depth == 0 => {
                    saw_eq = true;
                    break;
                }
                Tok::Punct(";") => break,
                _ => {}
            }
            k += 1;
        }
        if saw_eq {
            self.skip_until(&["="]);
            if !self.eat_punct("=") {
                self.pos = save;
            }
        }
        self.parse_expr(0, false)
    }

    fn parse_if(&mut self, line: u32) -> Expr {
        self.bump(); // if
        self.eat_ident("let");
        let cond = self.parse_cond();
        let then = self.parse_block();
        let else_ = if self.eat_ident("else") {
            if self.at_ident("if") {
                let l = self.line();
                Some(Box::new(self.parse_if(l)))
            } else {
                Some(Box::new(Expr::Block(self.parse_block())))
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then,
            else_,
            line,
        }
    }

    fn parse_match(&mut self, line: u32) -> Expr {
        self.bump(); // match
        let scrutinee = self.parse_expr(0, false);
        let mut arms = Vec::new();
        if self.eat_punct("{") {
            loop {
                if self.out_of_fuel() || self.peek().is_none() {
                    break;
                }
                if self.eat_punct("}") {
                    break;
                }
                // Pattern (and optional `if` guard) up to `=>`.
                self.skip_until(&["=>"]);
                if !self.eat_punct("=>") {
                    // Malformed arm: recover to `}`.
                    self.skip_until(&["}"]);
                    self.eat_punct("}");
                    break;
                }
                let before = self.pos;
                arms.push(self.parse_expr(0, true));
                if self.pos == before {
                    self.bump();
                }
                self.eat_punct(",");
            }
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        }
    }

    /// Parses a path expression and its immediate struct-literal / macro /
    /// call continuation.
    fn parse_path_expr(&mut self, line: u32, struct_ok: bool) -> Expr {
        let mut segs: Vec<String> = Vec::new();
        while let Some(Tok::Ident(s)) = self.peek() {
            segs.push(s.clone());
            self.bump();
            if self.at_punct("::") {
                self.bump();
                if self.at_punct("<") {
                    // Turbofish `Path::<T>`: skip, continue path.
                    self.skip_generics();
                    if self.at_punct("::") {
                        self.bump();
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        if segs.is_empty() {
            return Expr::Other { line };
        }
        // Macro invocation.
        if self.at_punct("!")
            && matches!(
                self.peek_at(1),
                Some(Tok::Punct("(")) | Some(Tok::Punct("[")) | Some(Tok::Punct("{"))
            )
        {
            self.bump(); // !
            let first_str = self.capture_macro_body();
            return Expr::Macro {
                segs,
                first_str,
                line,
            };
        }
        // Struct literal: `Path { ... }` when allowed and plausible.
        if struct_ok && self.at_punct("{") && struct_literal_plausible(&segs) {
            let fields = self.parse_struct_lit_body();
            return Expr::StructLit { segs, fields, line };
        }
        Expr::Path { segs, line }
    }

    /// Captures a macro body group, returning the first string literal
    /// inside it.
    fn capture_macro_body(&mut self) -> Option<String> {
        let close = match self.peek() {
            Some(Tok::Punct("(")) => ")",
            Some(Tok::Punct("[")) => "]",
            Some(Tok::Punct("{")) => "}",
            _ => return None,
        };
        let open = match self.peek() {
            Some(Tok::Punct(p)) => *p,
            _ => return None,
        };
        self.bump();
        let mut depth = 1i32;
        let mut first_str = None;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct(p) if *p == open => depth += 1,
                Tok::Punct(p) if *p == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return first_str;
                    }
                }
                Tok::Str(s) if first_str.is_none() => first_str = Some(s.clone()),
                _ => {}
            }
            self.bump();
            if self.out_of_fuel() {
                break;
            }
        }
        first_str
    }

    fn parse_struct_lit_body(&mut self) -> Vec<Expr> {
        let mut fields = Vec::new();
        if !self.eat_punct("{") {
            return fields;
        }
        loop {
            if self.out_of_fuel() || self.peek().is_none() {
                return fields;
            }
            if self.eat_punct("}") {
                return fields;
            }
            if self.eat_punct(",") {
                continue;
            }
            if self.eat_punct("..") {
                // Functional update base.
                let before = self.pos;
                fields.push(self.parse_expr(0, true));
                if self.pos == before {
                    self.bump();
                }
                continue;
            }
            // `field: expr` or shorthand `field`.
            if let Some(Tok::Ident(_)) = self.peek() {
                if self.peek_at(1) == Some(&Tok::Punct(":")) {
                    self.bump();
                    self.bump();
                    let before = self.pos;
                    fields.push(self.parse_expr(0, true));
                    if self.pos == before {
                        self.bump();
                    }
                    continue;
                }
            }
            let before = self.pos;
            fields.push(self.parse_expr(0, true));
            if self.pos == before {
                self.bump();
            }
        }
    }
}

/// `Foo { ... }` is a struct literal when the path's last segment looks
/// like a type (uppercase initial or `Self`); lowercase paths before `{`
/// are almost always condition/block boundaries the keyword productions
/// already handled.
fn struct_literal_plausible(segs: &[String]) -> bool {
    segs.last()
        .is_some_and(|s| s == "Self" || s.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;
    use crate::lexer::lex;

    fn parse(src: &str) -> File {
        parse_file(&lex(src))
    }

    fn fns(file: &File) -> Vec<(&str, bool)> {
        let mut out = Vec::new();
        for item in &file.items {
            item.walk("", false, &mut |ctx| {
                if matches!(ctx.item.kind, ItemKind::Fn(_) | ItemKind::FnDecl) {
                    out.push((
                        Box::leak(ctx.item.name.clone().into_boxed_str()) as &str,
                        ctx.in_test,
                    ));
                }
            });
        }
        out
    }

    fn first_fn_body(file: &File) -> &Block {
        fn find(items: &[Item]) -> Option<&Block> {
            for item in items {
                match &item.kind {
                    ItemKind::Fn(b) => return Some(b),
                    ItemKind::Mod(n) | ItemKind::Impl(n) | ItemKind::Trait(n) => {
                        if let Some(b) = find(n) {
                            return Some(b);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        find(&file.items).expect("no fn")
    }

    /// Collects all method-call names in the first fn body.
    fn method_calls(file: &File) -> Vec<String> {
        let mut out = Vec::new();
        first_fn_body(file).walk_exprs(&mut |e| {
            if let Expr::MethodCall { method, .. } = e {
                out.push(method.clone());
            }
        });
        out
    }

    #[test]
    fn items_with_spans_and_nesting() {
        let f = parse(
            "mod outer {\n  impl Widget {\n    pub fn poke(&self) {}\n  }\n  fn free() {}\n}\nfn top() {}\n",
        );
        assert_eq!(f.items.len(), 2);
        assert_eq!(f.items[0].name, "outer");
        assert_eq!(f.items[0].line, 1);
        assert_eq!(f.items[0].end_line, 6);
        let names: Vec<_> = fns(&f).into_iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["poke", "free", "top"]);
    }

    #[test]
    fn impl_type_name_with_trait_and_generics() {
        let f =
            parse("impl<T: Clone> Iterator for Chunks<T> where T: Send { fn next(&mut self) {} }");
        assert_eq!(f.items[0].name, "Chunks");
        let f = parse("impl Widget { fn f() {} }");
        assert_eq!(f.items[0].name, "Widget");
    }

    #[test]
    fn test_attributes_propagate() {
        let f = parse(
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { a.unwrap(); }\n}\nfn lib() {}\n",
        );
        let got = fns(&f);
        assert_eq!(got[0], ("t", true));
        assert_eq!(got[1], ("lib", false));
    }

    #[test]
    fn method_call_chain_and_guard_shape() {
        let f = parse("fn f(&self) { let g = self.queue.lock().unwrap(); g.push(1); }");
        // walk() is pre-order, so the outermost call (`unwrap`) comes first.
        assert_eq!(method_calls(&f), vec!["unwrap", "lock", "push"]);
        let body = first_fn_body(&f);
        match &body.stmts[0] {
            Stmt::Let { name, init, .. } => {
                assert_eq!(name.as_deref(), Some("g"));
                let init = init.as_ref().unwrap();
                // unwrap(lock(self.queue))
                match init {
                    Expr::MethodCall { method, recv, .. } => {
                        assert_eq!(method, "unwrap");
                        match recv.as_ref() {
                            Expr::MethodCall { method, recv, .. } => {
                                assert_eq!(method, "lock");
                                assert_eq!(recv.place().as_deref(), Some("self.queue"));
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn struct_literal_vs_block_disambiguation() {
        // `if x { ... }`: `x` path, block — not a struct literal.
        let f = parse("fn f(x: bool) { if x { g(); } }");
        let body = first_fn_body(&f);
        assert!(matches!(&body.stmts[0], Stmt::Expr(Expr::If { .. })));
        // `Point { x: 1 }` in binding position is a struct literal.
        let f = parse("fn f() { let p = Point { x: 1, y: 2 }; }");
        match &first_fn_body(&f).stmts[0] {
            Stmt::Let { init, .. } => {
                assert!(
                    matches!(init.as_ref().unwrap(), Expr::StructLit { segs, fields, .. }
                    if segs == &["Point"] && fields.len() == 2)
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn match_arms_are_parsed() {
        let f = parse("fn f(x: u8) -> u8 { match x { 0 => a.lock(), _ if x > 2 => b(), _ => 0 } }");
        let mut arms = 0;
        first_fn_body(&f).walk_exprs(&mut |e| {
            if let Expr::Match { arms: a, .. } = e {
                arms = a.len();
            }
        });
        assert_eq!(arms, 3);
        assert!(method_calls(&f).contains(&"lock".to_string()));
    }

    #[test]
    fn closures_and_for_loops() {
        let f = parse(
            "fn f(v: Vec<u32>) { let t: Vec<u32> = v.iter().map(|x| x + 1).collect(); for item in t { use_it(item); } }",
        );
        let calls = method_calls(&f);
        assert!(calls.contains(&"map".to_string()));
        let mut for_pat = None;
        first_fn_body(&f).walk_exprs(&mut |e| {
            if let Expr::ForLoop { pat, .. } = e {
                for_pat = pat.clone();
            }
        });
        assert_eq!(for_pat.as_deref(), Some("item"));
    }

    #[test]
    fn casts_record_target_type() {
        let f = parse("fn f(n: u64) -> u32 { (n + 1) as u32 }");
        let mut cast_ty = None;
        first_fn_body(&f).walk_exprs(&mut |e| {
            if let Expr::Cast { ty, .. } = e {
                cast_ty = Some(ty.clone());
            }
        });
        assert_eq!(cast_ty.as_deref(), Some("u32"));
    }

    #[test]
    fn macro_first_string_is_captured() {
        let f = parse("fn f() { std::println!(\"planner.slot_micros {}\", 12); }");
        let mut seen = None;
        first_fn_body(&f).walk_exprs(&mut |e| {
            if let Expr::Macro {
                segs, first_str, ..
            } = e
            {
                seen = Some((segs.clone(), first_str.clone()));
            }
        });
        let (segs, s) = seen.expect("macro not parsed");
        assert_eq!(segs.last().map(String::as_str), Some("println"));
        assert_eq!(s.as_deref(), Some("planner.slot_micros {}"));
    }

    #[test]
    fn macro_rules_bodies_are_skipped_not_parsed() {
        // The `$x` fragment syntax must not derail the item parser; the
        // following fn must still be found.
        let f = parse(
            "macro_rules! m { ($x:expr) => { $x.lock().unwrap() }; }\nfn after() { real.call(); }",
        );
        let names: Vec<_> = fns(&f).into_iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["after"]);
        assert!(method_calls(&f).contains(&"call".to_string()));
    }

    #[test]
    fn raw_strings_and_nested_comments_in_bodies() {
        let f = parse(
            "fn f() { let s = r#\"quoted \"lock()\" text\"#; /* outer /* inner */ */ s.len(); }",
        );
        let calls = method_calls(&f);
        assert_eq!(calls, vec!["len"]);
    }

    #[test]
    fn lifetimes_do_not_confuse_expression_parsing() {
        let f = parse("fn f<'a>(x: &'a str) -> &'a str { 'outer: loop { break 'outer; } x }");
        assert_eq!(fns(&f).len(), 1);
    }

    #[test]
    fn let_else_and_while_let() {
        let f = parse(
            "fn f(o: Option<u32>) { let Some(v) = o else { return; }; while let Some(x) = next() { use_it(x); } }",
        );
        let body = first_fn_body(&f);
        assert!(matches!(
            &body.stmts[0],
            Stmt::Let {
                else_block: Some(_),
                ..
            }
        ));
        let mut whiles = 0;
        body.walk_exprs(&mut |e| {
            if matches!(e, Expr::While { .. }) {
                whiles += 1;
            }
        });
        assert_eq!(whiles, 1);
    }

    #[test]
    fn shift_operators_do_not_break_generics() {
        let f = parse("fn f(v: Vec<Vec<u8>>) -> u64 { (1u64 << 3) >> 1 }");
        assert_eq!(fns(&f).len(), 1);
        let f = parse("fn g() { let m: BTreeMap<String, Vec<u32>> = BTreeMap::new(); m.len(); }");
        assert!(method_calls(&f).contains(&"len".to_string()));
    }

    #[test]
    fn blocking_annotations_attribute_and_comment() {
        let f = parse("#[imcf_lint::blocking]\nfn slow() {}\n");
        assert!(f.items[0].blocking);
        let f = parse("// imcf-lint: blocking\nfn slow() {}\nfn fast() {}\n");
        assert!(f.items[0].blocking);
        assert!(!f.items[1].blocking);
        // The marker inside a doc comment is ignored.
        let f = parse("/// imcf-lint: blocking\nfn documented() {}\n");
        assert!(!f.items[0].blocking);
    }

    #[test]
    fn malformed_input_degrades_without_hanging() {
        let f = parse("fn broken( { ] } )) ;;; fn ok() { fine(); }");
        // At minimum the parser terminates and finds at least one fn.
        assert!(!fns(&f).is_empty());
        let _ = parse("{{{{{{");
        let _ = parse("impl impl impl");
        let _ = parse("match { => , }");
    }

    #[test]
    fn nested_fn_items_inside_bodies() {
        let f = parse("fn outer() { fn inner() { x.lock(); } inner(); }");
        let names: Vec<_> = fns(&f).into_iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn ast_walk_reaches_exprs_in_if_else_chains() {
        let f = parse(
            "fn f(a: bool) { if a { x.lock(); } else if !a { y.lock(); } else { z.lock(); } }",
        );
        assert_eq!(method_calls(&f).len(), 3);
    }

    #[test]
    fn field_chains_render_as_places() {
        let f = parse("fn f(&self) { self.inner.state.update(); }");
        let mut place = None;
        first_fn_body(&f).walk_exprs(&mut |e| {
            if let Expr::MethodCall { recv, method, .. } = e {
                if method == "update" {
                    place = recv.place();
                }
            }
        });
        assert_eq!(place.as_deref(), Some("self.inner.state"));
    }

    // Keep the ast import live for the helper signatures above.
    #[allow(dead_code)]
    fn _touch(_: &ast::File) {}
}
