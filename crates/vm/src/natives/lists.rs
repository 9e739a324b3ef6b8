//! Sequence natives: lists, vectors, maps, and the higher-order
//! functions (`mapcar`, `reduce`, `sort`, ...) that call back into Gozer
//! code through [`NativeCtx::call`].

use std::sync::Arc;

use gozer_lang::{AssocMap, Value};

use crate::error::{VmError, VmResult};
use crate::gvm::{Gvm, NativeCtx};
use crate::runtime::NativeOutcome;

use super::{arity, int_arg, reg, seq_arg};

/// Coerce any sequence-ish value to a vector of items.
fn to_items(name: &str, v: &Value) -> VmResult<Vec<Value>> {
    match v {
        Value::Nil => Ok(vec![]),
        Value::List(items) | Value::Vector(items) => Ok(items.to_vec()),
        Value::Str(s) => Ok(s.chars().map(Value::Char).collect()),
        Value::Map(m) => Ok(m
            .iter()
            .map(|(k, v)| Value::list(vec![k.clone(), v.clone()]))
            .collect()),
        other => Err(VmError::type_error(&format!("sequence ({name})"), other)),
    }
}

fn call_pred(ctx: &mut NativeCtx<'_>, f: &Value, item: &Value) -> VmResult<bool> {
    Ok(ctx.call(f, vec![item.clone()])?.is_truthy())
}

pub(super) fn install(gvm: &Arc<Gvm>) {
    reg(gvm, "list", |_, args| NativeOutcome::ok(Value::list(args)));
    reg(gvm, "vector", |_, args| {
        NativeOutcome::ok(Value::vector(args))
    });
    reg(gvm, "cons", |_, args| {
        arity("cons", &args, 2, Some(2))?;
        let mut out = Vec::with_capacity(1 + args[1].as_seq().map_or(0, <[Value]>::len));
        out.push(args[0].clone());
        match args[1].as_seq() {
            Some(items) => out.extend_from_slice(items),
            // Improper lists are not supported; consing onto a non-list
            // makes a two-element list.
            None => out.push(args[1].clone()),
        }
        NativeOutcome::ok(Value::list(out))
    });
    reg(gvm, "first", |_, args| {
        arity("first", &args, 1, Some(1))?;
        NativeOutcome::ok(
            seq_arg("first", &args, 0)?
                .first()
                .cloned()
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "second", |_, args| {
        arity("second", &args, 1, Some(1))?;
        NativeOutcome::ok(
            seq_arg("second", &args, 0)?
                .get(1)
                .cloned()
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "third", |_, args| {
        arity("third", &args, 1, Some(1))?;
        NativeOutcome::ok(
            seq_arg("third", &args, 0)?
                .get(2)
                .cloned()
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "rest", |_, args| {
        arity("rest", &args, 1, Some(1))?;
        let items = seq_arg("rest", &args, 0)?;
        NativeOutcome::ok(if items.len() <= 1 {
            Value::Nil
        } else {
            Value::list(items[1..].to_vec())
        })
    });
    // CL-compatible aliases.
    for (alias, target) in [("car", "first"), ("cdr", "rest")] {
        let f = gvm.function(target).expect("alias target");
        gvm.set_global(gozer_lang::Symbol::intern(alias), f);
    }
    reg(gvm, "nth", |_, args| {
        arity("nth", &args, 2, Some(2))?;
        let n = int_arg("nth", &args, 0)?;
        let items = seq_arg("nth", &args, 1)?;
        NativeOutcome::ok(
            usize::try_from(n)
                .ok()
                .and_then(|i| items.get(i))
                .cloned()
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "nthcdr", |_, args| {
        arity("nthcdr", &args, 2, Some(2))?;
        let n = int_arg("nthcdr", &args, 0)?.max(0) as usize;
        let items = seq_arg("nthcdr", &args, 1)?;
        NativeOutcome::ok(if n >= items.len() {
            Value::Nil
        } else {
            Value::list(items[n..].to_vec())
        })
    });
    reg(gvm, "elt", |_, args| {
        arity("elt", &args, 2, Some(2))?;
        let items = to_items("elt", &args[0])?;
        let i = int_arg("elt", &args, 1)?;
        usize::try_from(i)
            .ok()
            .and_then(|i| items.get(i).cloned())
            .map(NativeOutcome::Value)
            .ok_or_else(|| VmError::msg(format!("elt: index {i} out of bounds")))
    });
    reg(gvm, "last", |_, args| {
        arity("last", &args, 1, Some(1))?;
        NativeOutcome::ok(
            seq_arg("last", &args, 0)?
                .last()
                .cloned()
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "butlast", |_, args| {
        arity("butlast", &args, 1, Some(1))?;
        let items = seq_arg("butlast", &args, 0)?;
        NativeOutcome::ok(if items.len() <= 1 {
            Value::Nil
        } else {
            Value::list(items[..items.len() - 1].to_vec())
        })
    });
    reg(gvm, "length", |_, args| {
        arity("length", &args, 1, Some(1))?;
        let n = match &args[0] {
            Value::Nil => 0,
            Value::List(i) | Value::Vector(i) => i.len(),
            Value::Str(s) => s.chars().count(),
            Value::Map(m) => m.len(),
            other => return Err(VmError::type_error("sequence", other)),
        };
        NativeOutcome::ok(Value::Int(n as i64))
    });
    reg(gvm, "append", |_, args| {
        let mut out = Vec::new();
        for a in &args {
            out.extend(to_items("append", a)?);
        }
        NativeOutcome::ok(Value::list(out))
    });
    // %append1 appends a single element. When the receiving binding holds
    // the only reference, the underlying vector is reused, making the
    // `append!`/`collect` accumulation pattern amortized O(1).
    reg(gvm, "%append1", |_, mut args| {
        arity("%append1", &args, 2, Some(2))?;
        let item = args.pop().expect("two args");
        let list = args.pop().expect("two args");
        match list {
            Value::Nil => NativeOutcome::ok(Value::list(vec![item])),
            Value::List(mut items) => {
                match Arc::get_mut(&mut items) {
                    Some(v) => v.push(item),
                    None => {
                        let mut v = items.to_vec();
                        v.push(item);
                        items = Arc::new(v);
                    }
                }
                NativeOutcome::ok(Value::List(items))
            }
            other => Err(VmError::type_error("list", &other)),
        }
    });
    reg(gvm, "reverse", |_, args| {
        arity("reverse", &args, 1, Some(1))?;
        let mut items = to_items("reverse", &args[0])?;
        items.reverse();
        NativeOutcome::ok(Value::list(items))
    });
    reg(gvm, "member", |_, args| {
        arity("member", &args, 2, Some(2))?;
        let items = seq_arg("member", &args, 1)?;
        NativeOutcome::ok(
            items
                .iter()
                .position(|v| v == &args[0])
                .map(|i| Value::list(items[i..].to_vec()))
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "assoc", |_, args| {
        arity("assoc", &args, 2, Some(2))?;
        let items = seq_arg("assoc", &args, 1)?;
        for pair in items {
            if let Some(p) = pair.as_seq() {
                if p.first() == Some(&args[0]) {
                    return NativeOutcome::ok(pair.clone());
                }
            }
        }
        NativeOutcome::ok(Value::Nil)
    });
    reg(gvm, "getf", |_, args| {
        arity("getf", &args, 2, Some(3))?;
        let items = seq_arg("getf", &args, 0)?;
        let mut i = 0;
        while i + 1 < items.len() {
            if items[i] == args[1] {
                return NativeOutcome::ok(items[i + 1].clone());
            }
            i += 2;
        }
        NativeOutcome::ok(args.get(2).cloned().unwrap_or(Value::Nil))
    });
    reg(gvm, "subseq", |_, args| {
        arity("subseq", &args, 2, Some(3))?;
        let items = to_items("subseq", &args[0])?;
        let a = int_arg("subseq", &args, 1)?.max(0) as usize;
        let b = match args.get(2) {
            Some(v) => v
                .as_int()
                .ok_or_else(|| VmError::type_error("integer", v))?
                .max(0) as usize,
            None => items.len(),
        };
        if a > items.len() || b > items.len() || a > b {
            return Err(VmError::msg(format!(
                "subseq: bounds {a}..{b} out of range (len {})",
                items.len()
            )));
        }
        // Strings slice back to strings.
        if let Value::Str(s) = &args[0] {
            let sub: String = s.chars().skip(a).take(b - a).collect();
            return NativeOutcome::ok(Value::from(sub));
        }
        NativeOutcome::ok(Value::list(items[a..b].to_vec()))
    });
    reg(gvm, "position", |_, args| {
        arity("position", &args, 2, Some(2))?;
        let items = seq_arg("position", &args, 1)?;
        NativeOutcome::ok(
            items
                .iter()
                .position(|v| v == &args[0])
                .map(|i| Value::Int(i as i64))
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "position-if", |ctx, args| {
        arity("position-if", &args, 2, Some(2))?;
        let items = to_items("position-if", &args[1])?;
        for (i, item) in items.iter().enumerate() {
            if call_pred(ctx, &args[0], item)? {
                return NativeOutcome::ok(Value::Int(i as i64));
            }
        }
        NativeOutcome::ok(Value::Nil)
    });
    reg(gvm, "find", |_, args| {
        arity("find", &args, 2, Some(2))?;
        let items = seq_arg("find", &args, 1)?;
        NativeOutcome::ok(
            items
                .iter()
                .find(|v| *v == &args[0])
                .cloned()
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "find-if", |ctx, args| {
        arity("find-if", &args, 2, Some(2))?;
        let items = to_items("find-if", &args[1])?;
        for item in &items {
            if call_pred(ctx, &args[0], item)? {
                return NativeOutcome::ok(item.clone());
            }
        }
        NativeOutcome::ok(Value::Nil)
    });
    reg(gvm, "count", |_, args| {
        arity("count", &args, 2, Some(2))?;
        let items = seq_arg("count", &args, 1)?;
        let n = items.iter().filter(|v| *v == &args[0]).count();
        NativeOutcome::ok(Value::Int(n as i64))
    });
    reg(gvm, "count-if", |ctx, args| {
        arity("count-if", &args, 2, Some(2))?;
        let items = to_items("count-if", &args[1])?;
        let mut n = 0;
        for item in &items {
            if call_pred(ctx, &args[0], item)? {
                n += 1;
            }
        }
        NativeOutcome::ok(Value::Int(n))
    });
    reg(gvm, "remove", |_, args| {
        arity("remove", &args, 2, Some(2))?;
        let items = to_items("remove", &args[1])?;
        NativeOutcome::ok(Value::list(
            items.into_iter().filter(|v| v != &args[0]).collect(),
        ))
    });
    reg(gvm, "remove-if", |ctx, args| {
        arity("remove-if", &args, 2, Some(2))?;
        let items = to_items("remove-if", &args[1])?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            if !call_pred(ctx, &args[0], &item)? {
                out.push(item);
            }
        }
        NativeOutcome::ok(Value::list(out))
    });
    reg(gvm, "remove-if-not", |ctx, args| {
        arity("remove-if-not", &args, 2, Some(2))?;
        let items = to_items("remove-if-not", &args[1])?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            if call_pred(ctx, &args[0], &item)? {
                out.push(item);
            }
        }
        NativeOutcome::ok(Value::list(out))
    });
    // filter = remove-if-not (the modern name).
    let filter = gvm.function("remove-if-not").expect("remove-if-not");
    gvm.set_global(gozer_lang::Symbol::intern("filter"), filter);

    reg(gvm, "mapcar", |ctx, args| {
        arity("mapcar", &args, 2, None)?;
        let lists: Vec<Vec<Value>> = args[1..]
            .iter()
            .map(|l| to_items("mapcar", l))
            .collect::<VmResult<_>>()?;
        let n = lists.iter().map(Vec::len).min().unwrap_or(0);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let call_args: Vec<Value> = lists.iter().map(|l| l[i].clone()).collect();
            out.push(ctx.call(&args[0], call_args)?);
        }
        NativeOutcome::ok(Value::list(out))
    });
    reg(gvm, "mapc", |ctx, args| {
        arity("mapc", &args, 2, Some(2))?;
        let items = to_items("mapc", &args[1])?;
        for item in &items {
            ctx.call(&args[0], vec![item.clone()])?;
        }
        NativeOutcome::ok(args[1].clone())
    });
    reg(gvm, "reduce", |ctx, args| {
        arity("reduce", &args, 2, Some(3))?;
        let items = to_items("reduce", &args[1])?;
        let mut iter = items.into_iter();
        let mut acc = match args.get(2) {
            Some(init) => init.clone(),
            None => match iter.next() {
                Some(v) => v,
                None => return ctx.call(&args[0], vec![]).map(NativeOutcome::Value),
            },
        };
        for item in iter {
            acc = ctx.call(&args[0], vec![acc, item])?;
        }
        NativeOutcome::ok(acc)
    });
    reg(gvm, "every", |ctx, args| {
        arity("every", &args, 2, Some(2))?;
        let items = to_items("every", &args[1])?;
        for item in &items {
            if !call_pred(ctx, &args[0], item)? {
                return NativeOutcome::ok(Value::Nil);
            }
        }
        NativeOutcome::ok(Value::Bool(true))
    });
    reg(gvm, "some", |ctx, args| {
        arity("some", &args, 2, Some(2))?;
        let items = to_items("some", &args[1])?;
        for item in &items {
            let v = ctx.call(&args[0], vec![item.clone()])?;
            if v.is_truthy() {
                return NativeOutcome::ok(v);
            }
        }
        NativeOutcome::ok(Value::Nil)
    });
    reg(gvm, "sort", |ctx, args| {
        arity("sort", &args, 1, Some(2))?;
        let mut items = to_items("sort", &args[0])?;
        match args.get(1) {
            None => {
                // Default ordering: numbers then strings, by natural order.
                let mut err = None;
                items.sort_by(|a, b| match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
                    _ => match (a.as_str(), b.as_str()) {
                        (Some(x), Some(y)) => x.cmp(y),
                        _ => {
                            err.get_or_insert_with(|| {
                                VmError::msg("sort: default ordering needs numbers or strings")
                            });
                            std::cmp::Ordering::Equal
                        }
                    },
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
            Some(pred) => {
                // Merge sort so comparator errors propagate.
                items = merge_sort(ctx, pred, items)?;
            }
        }
        NativeOutcome::ok(Value::list(items))
    });
    reg(gvm, "range", |_, args| {
        arity("range", &args, 1, Some(3))?;
        let (a, b, step) = match args.len() {
            1 => (0, int_arg("range", &args, 0)?, 1),
            2 => (int_arg("range", &args, 0)?, int_arg("range", &args, 1)?, 1),
            _ => (
                int_arg("range", &args, 0)?,
                int_arg("range", &args, 1)?,
                int_arg("range", &args, 2)?,
            ),
        };
        if step == 0 {
            return Err(VmError::msg("range: step must be nonzero"));
        }
        let mut out = Vec::new();
        let mut i = a;
        while (step > 0 && i < b) || (step < 0 && i > b) {
            out.push(Value::Int(i));
            i += step;
        }
        NativeOutcome::ok(Value::list(out))
    });
    reg(gvm, "seq->list", |_, args| {
        arity("seq->list", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::list(to_items("seq->list", &args[0])?))
    });
    reg(gvm, "list->vector", |_, args| {
        arity("list->vector", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::vector(to_items("list->vector", &args[0])?))
    });
    reg(gvm, "vector->list", |_, args| {
        arity("vector->list", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::list(to_items("vector->list", &args[0])?))
    });
    reg(gvm, "flatten", |_, args| {
        arity("flatten", &args, 1, Some(1))?;
        fn walk(v: &Value, out: &mut Vec<Value>) {
            match v.as_seq() {
                Some(items) => items.iter().for_each(|i| walk(i, out)),
                None => out.push(v.clone()),
            }
        }
        let mut out = Vec::new();
        walk(&args[0], &mut out);
        NativeOutcome::ok(Value::list(out))
    });

    // ---- maps --------------------------------------------------------
    reg(gvm, "get", |_, args| {
        arity("get", &args, 2, Some(3))?;
        let m = args[0]
            .as_map()
            .ok_or_else(|| VmError::type_error("map", &args[0]))?;
        NativeOutcome::ok(
            m.get(&args[1])
                .cloned()
                .or_else(|| args.get(2).cloned())
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "put", |_, args| {
        arity("put", &args, 3, Some(3))?;
        let m = args[0]
            .as_map()
            .ok_or_else(|| VmError::type_error("map", &args[0]))?;
        let mut m = m.clone();
        m.insert(args[1].clone(), args[2].clone());
        NativeOutcome::ok(Value::Map(Arc::new(m)))
    });
    reg(gvm, "dissoc", |_, args| {
        arity("dissoc", &args, 2, Some(2))?;
        let m = args[0]
            .as_map()
            .ok_or_else(|| VmError::type_error("map", &args[0]))?;
        let mut m = m.clone();
        m.remove(&args[1]);
        NativeOutcome::ok(Value::Map(Arc::new(m)))
    });
    reg(gvm, "contains-key?", |_, args| {
        arity("contains-key?", &args, 2, Some(2))?;
        let m = args[0]
            .as_map()
            .ok_or_else(|| VmError::type_error("map", &args[0]))?;
        NativeOutcome::ok(Value::Bool(m.get(&args[1]).is_some()))
    });
    reg(gvm, "keys", |_, args| {
        arity("keys", &args, 1, Some(1))?;
        let m = args[0]
            .as_map()
            .ok_or_else(|| VmError::type_error("map", &args[0]))?;
        NativeOutcome::ok(Value::list(m.iter().map(|(k, _)| k.clone()).collect()))
    });
    reg(gvm, "vals", |_, args| {
        arity("vals", &args, 1, Some(1))?;
        let m = args[0]
            .as_map()
            .ok_or_else(|| VmError::type_error("map", &args[0]))?;
        NativeOutcome::ok(Value::list(m.iter().map(|(_, v)| v.clone()).collect()))
    });
    reg(gvm, "merge", |_, args| {
        arity("merge", &args, 1, None)?;
        let mut out = AssocMap::new();
        for a in &args {
            let m = a.as_map().ok_or_else(|| VmError::type_error("map", a))?;
            for (k, v) in m.iter() {
                out.insert(k.clone(), v.clone());
            }
        }
        NativeOutcome::ok(Value::Map(Arc::new(out)))
    });
    reg(gvm, "make-map", |_, args| {
        if args.len() % 2 != 0 {
            return Err(VmError::msg("make-map: odd number of arguments"));
        }
        let mut m = AssocMap::new();
        let mut it = args.into_iter();
        while let (Some(k), Some(v)) = (it.next(), it.next()) {
            m.insert(k, v);
        }
        NativeOutcome::ok(Value::Map(Arc::new(m)))
    });
}

fn merge_sort(ctx: &mut NativeCtx<'_>, pred: &Value, items: Vec<Value>) -> VmResult<Vec<Value>> {
    if items.len() <= 1 {
        return Ok(items);
    }
    let mid = items.len() / 2;
    let mut right = items;
    let left = right.drain(..mid).collect::<Vec<_>>();
    let left = merge_sort(ctx, pred, left)?;
    let right = merge_sort(ctx, pred, right)?;
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut li, mut ri) = (0, 0);
    while li < left.len() && ri < right.len() {
        // Stable: take from the left unless right < left.
        let right_first = ctx
            .call(pred, vec![right[ri].clone(), left[li].clone()])?
            .is_truthy();
        if right_first {
            out.push(right[ri].clone());
            ri += 1;
        } else {
            out.push(left[li].clone());
            li += 1;
        }
    }
    out.extend_from_slice(&left[li..]);
    out.extend_from_slice(&right[ri..]);
    Ok(out)
}
