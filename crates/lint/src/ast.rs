//! The lightweight AST produced by [`crate::parser`].
//!
//! This is not a full Rust AST: it models exactly the structure the
//! analysis passes need — item nesting with spans, function bodies as
//! statement/expression trees covering calls, method calls, bindings,
//! blocks, control flow, binary operators and casts — and collapses
//! everything else into [`Expr::Other`]. The parser is tolerant: malformed
//! or unmodelled syntax degrades to `Other` nodes with correct line
//! anchoring, never to a parse failure.

/// One parsed source file.
#[derive(Debug, Default)]
pub struct File {
    pub items: Vec<Item>,
}

/// A top-level or nested item (fn, impl, mod, ...).
#[derive(Debug)]
pub struct Item {
    /// The item's declared name (fn name, mod name, impl type name);
    /// empty for anonymous/unmodelled items.
    pub name: String,
    /// 1-based line of the item's first token (attributes included).
    pub line: u32,
    /// 1-based line of the item's last token.
    pub end_line: u32,
    /// The item carries a `#[test]` / `#[cfg(test)]`-gating attribute.
    pub is_test: bool,
    /// The item is annotated blocking: either the `#[imcf_lint::blocking]`
    /// attribute or the `// imcf-lint: blocking` marker comment directly
    /// above the item (the comment form exists because `register_tool` is
    /// unstable, so the attribute cannot yet compile in-tree).
    pub blocking: bool,
    pub kind: ItemKind,
}

#[derive(Debug)]
pub enum ItemKind {
    /// A function with a body.
    Fn(Block),
    /// A bodyless function signature (trait method declaration).
    FnDecl,
    /// An inline module.
    Mod(Vec<Item>),
    /// An impl block; `name` on the [`Item`] is the self-type's last path
    /// segment (`Foo` for `impl<T> Trait for Foo<T>`).
    Impl(Vec<Item>),
    /// A trait definition with its items.
    Trait(Vec<Item>),
    /// Any other item (struct, enum, use, const, macro_rules, ...).
    Other,
}

/// A `{ ... }` block.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub line: u32,
    pub end_line: u32,
}

#[derive(Debug)]
pub enum Stmt {
    /// `let` binding. `name` is `Some` only for a simple identifier
    /// pattern (`let g = ...`, `let mut g = ...`); destructuring patterns
    /// record `None`.
    Let {
        name: Option<String>,
        /// The ascribed type rendered as a flat string (`"HashMap"` keeps
        /// only path segments), empty when not ascribed.
        ty: String,
        init: Option<Expr>,
        /// `let ... else { ... }` diverging block.
        else_block: Option<Block>,
        line: u32,
    },
    Expr(Expr),
    /// A nested item (fn/struct/... inside a block).
    Item(Item),
}

#[derive(Debug)]
pub enum Expr {
    /// A (possibly qualified) path: `a`, `a::b::c`, `Self::f`. Turbofish
    /// segments are dropped.
    Path {
        segs: Vec<String>,
        line: u32,
    },
    Lit {
        kind: Lit,
        line: u32,
    },
    /// `callee(args)` where `callee` is an arbitrary expression (almost
    /// always a `Path`).
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        line: u32,
    },
    /// `recv.method(args)`.
    MethodCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `path!(...)` / `path![...]` / `path! {...}`. The body is not
    /// parsed; `first_str` captures the first string literal inside (a
    /// format string, for `println!("...", ...)`).
    Macro {
        segs: Vec<String>,
        first_str: Option<String>,
        line: u32,
    },
    /// `recv.field` (also tuple indices: `t.0`).
    Field {
        recv: Box<Expr>,
        name: String,
        line: u32,
    },
    Unary {
        expr: Box<Expr>,
        line: u32,
    },
    Binary {
        op: &'static str,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        line: u32,
    },
    /// `lhs = rhs` and compound assignments.
    Assign {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        line: u32,
    },
    /// `expr as Ty`; `ty` is the target type's flat rendering (`"u32"`).
    Cast {
        expr: Box<Expr>,
        ty: String,
        line: u32,
    },
    /// `&expr` / `&mut expr`.
    Ref {
        expr: Box<Expr>,
        line: u32,
    },
    /// `expr?`.
    Try {
        expr: Box<Expr>,
        line: u32,
    },
    Index {
        recv: Box<Expr>,
        index: Box<Expr>,
        line: u32,
    },
    /// `(a, b, ...)` — parenthesized group or tuple.
    Tuple {
        exprs: Vec<Expr>,
        line: u32,
    },
    /// `[a, b, ...]` array literal (also `[x; n]`).
    Array {
        exprs: Vec<Expr>,
        line: u32,
    },
    /// `Path { field: expr, ..base }`.
    StructLit {
        segs: Vec<String>,
        fields: Vec<Expr>,
        line: u32,
    },
    Block(Block),
    If {
        cond: Box<Expr>,
        then: Block,
        else_: Option<Box<Expr>>,
        line: u32,
    },
    /// `match scrutinee { pat => expr, ... }`; arm patterns are skipped,
    /// arm bodies (and guard expressions) are kept.
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Expr>,
        line: u32,
    },
    While {
        cond: Box<Expr>,
        body: Block,
        line: u32,
    },
    Loop {
        body: Block,
        line: u32,
    },
    ForLoop {
        /// Bound variable for a simple identifier pattern.
        pat: Option<String>,
        iter: Box<Expr>,
        body: Block,
        line: u32,
    },
    /// `|args| body` / `move |args| body`; parameters are skipped.
    Closure {
        body: Box<Expr>,
        line: u32,
    },
    /// `return expr` / `break expr` / plain `break`/`continue`.
    Return {
        expr: Option<Box<Expr>>,
        line: u32,
    },
    /// Anything the parser does not model.
    Other {
        line: u32,
    },
}

#[derive(Debug)]
pub enum Lit {
    Int,
    Float,
    Str(String),
    Char,
}

impl Expr {
    /// The expression's anchor line.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Field { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Ref { line, .. }
            | Expr::Try { line, .. }
            | Expr::Index { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::While { line, .. }
            | Expr::Loop { line, .. }
            | Expr::ForLoop { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Return { line, .. }
            | Expr::Other { line } => *line,
            Expr::Block(b) => b.line,
        }
    }

    /// Renders a `Path`/`Field`/`Ref` chain as a dotted identity string
    /// (`self.subscribers` → `"self.subscribers"`); `None` for
    /// expressions that are not simple places.
    pub fn place(&self) -> Option<String> {
        match self {
            Expr::Path { segs, .. } => Some(segs.join("::")),
            Expr::Field { recv, name, .. } => Some(format!("{}.{name}", recv.place()?)),
            Expr::Ref { expr, .. } | Expr::Unary { expr, .. } | Expr::Try { expr, .. } => {
                expr.place()
            }
            _ => None,
        }
    }

    /// Walks this expression and every sub-expression, pre-order.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Macro { .. } | Expr::Other { .. } => {}
            Expr::Call { callee, args, .. } => {
                callee.walk(visit);
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(visit);
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::Field { recv, .. } => recv.walk(visit),
            Expr::Unary { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Ref { expr, .. }
            | Expr::Try { expr, .. }
            | Expr::Closure { body: expr, .. } => expr.walk(visit),
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            Expr::Index { recv, index, .. } => {
                recv.walk(visit);
                index.walk(visit);
            }
            Expr::Tuple { exprs, .. }
            | Expr::Array { exprs, .. }
            | Expr::StructLit { fields: exprs, .. } => {
                for e in exprs {
                    e.walk(visit);
                }
            }
            Expr::Block(b) => b.walk_exprs(visit),
            Expr::If {
                cond, then, else_, ..
            } => {
                cond.walk(visit);
                then.walk_exprs(visit);
                if let Some(e) = else_ {
                    e.walk(visit);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(visit);
                for a in arms {
                    a.walk(visit);
                }
            }
            Expr::While { cond, body, .. } => {
                cond.walk(visit);
                body.walk_exprs(visit);
            }
            Expr::Loop { body, .. } => body.walk_exprs(visit),
            Expr::ForLoop { iter, body, .. } => {
                iter.walk(visit);
                body.walk_exprs(visit);
            }
            Expr::Return { expr, .. } => {
                if let Some(e) = expr {
                    e.walk(visit);
                }
            }
        }
    }
}

impl Block {
    /// Walks every expression in the block (and nested blocks), pre-order.
    /// Nested *items* (fns declared inside the block) are not entered:
    /// they are separate functions analyzed on their own.
    pub fn walk_exprs<'a>(&'a self, visit: &mut dyn FnMut(&'a Expr)) {
        for stmt in &self.stmts {
            match stmt {
                Stmt::Let {
                    init, else_block, ..
                } => {
                    if let Some(e) = init {
                        e.walk(visit);
                    }
                    if let Some(b) = else_block {
                        b.walk_exprs(visit);
                    }
                }
                Stmt::Expr(e) => e.walk(visit),
                Stmt::Item(_) => {}
            }
        }
    }
}

impl Item {
    /// Walks this item and all nested items, pre-order, with the
    /// enclosing impl/trait type name (empty at module level) and whether
    /// any enclosing item was test-gated.
    pub fn walk<'a>(&'a self, owner: &str, in_test: bool, visit: &mut dyn FnMut(&ItemCtx<'a>)) {
        let in_test = in_test || self.is_test;
        visit(&ItemCtx {
            item: self,
            owner: owner.to_string(),
            in_test,
        });
        let nested_owner = match &self.kind {
            ItemKind::Impl(_) | ItemKind::Trait(_) => self.name.as_str(),
            _ => "",
        };
        match &self.kind {
            ItemKind::Mod(items) | ItemKind::Impl(items) | ItemKind::Trait(items) => {
                for item in items {
                    item.walk(nested_owner, in_test, visit);
                }
            }
            ItemKind::Fn(body) => {
                walk_block_items(body, owner, in_test, visit);
            }
            _ => {}
        }
    }
}

fn walk_block_items<'a>(
    block: &'a Block,
    owner: &str,
    in_test: bool,
    visit: &mut dyn FnMut(&ItemCtx<'a>),
) {
    for stmt in &block.stmts {
        if let Stmt::Item(item) = stmt {
            item.walk(owner, in_test, visit);
        }
    }
}

/// An item paired with its walk context.
pub struct ItemCtx<'a> {
    pub item: &'a Item,
    /// Enclosing impl/trait type name, empty at module level.
    pub owner: String,
    /// The item or an ancestor is test-gated.
    pub in_test: bool,
}
