//! Breadth tests for the native standard library: sequences, strings,
//! maps, predicates, metaprogramming helpers.

use gozer_lang::Value;
use gozer_vm::{Gvm, VmError};

fn eval(src: &str) -> Value {
    let gvm = Gvm::with_pool_size(1);
    gvm.eval_str(src)
        .unwrap_or_else(|e| panic!("eval failed: {e}\nsource: {src}"))
}

fn eval_err(src: &str) -> VmError {
    Gvm::with_pool_size(1)
        .eval_str(src)
        .expect_err("expected error")
}

#[test]
fn list_accessors() {
    assert_eq!(eval("(first (list 1 2 3))"), Value::Int(1));
    assert_eq!(eval("(second (list 1 2 3))"), Value::Int(2));
    assert_eq!(eval("(third (list 1 2 3))"), Value::Int(3));
    assert_eq!(eval("(first nil)"), Value::Nil);
    assert_eq!(eval("(rest (list 1))"), Value::Nil);
    assert_eq!(eval("(last (list 1 2 3))"), Value::Int(3));
    assert_eq!(eval("(butlast (list 1 2 3))"), eval("(list 1 2)"));
    assert_eq!(eval("(nth 1 (list :a :b :c))"), Value::keyword("b"));
    assert_eq!(eval("(nth 99 (list 1))"), Value::Nil);
    assert_eq!(eval("(nthcdr 2 (list 1 2 3 4))"), eval("(list 3 4)"));
    assert_eq!(eval("(car (cons 0 (list 1)))"), Value::Int(0));
    assert_eq!(eval("(cdr (list 1 2))"), eval("(list 2)"));
}

#[test]
fn list_searching() {
    assert_eq!(eval("(member 2 (list 1 2 3))"), eval("(list 2 3)"));
    assert_eq!(eval("(member 9 (list 1 2 3))"), Value::Nil);
    assert_eq!(
        eval("(assoc :b (list (list :a 1) (list :b 2)))"),
        eval("(list :b 2)")
    );
    assert_eq!(eval("(getf (list :a 1 :b 2) :b)"), Value::Int(2));
    assert_eq!(eval("(getf (list :a 1) :z 99)"), Value::Int(99));
    assert_eq!(eval("(position 3 (list 1 2 3))"), Value::Int(2));
    assert_eq!(eval("(position-if #'evenp (list 1 3 4))"), Value::Int(2));
    assert_eq!(eval("(find-if #'evenp (list 1 3 6 8))"), Value::Int(6));
    assert_eq!(eval("(count 1 (list 1 2 1 1))"), Value::Int(3));
    assert_eq!(eval("(count-if #'oddp (list 1 2 3))"), Value::Int(2));
    assert_eq!(eval("(every #'evenp (list 2 4 6))"), Value::Bool(true));
    assert_eq!(eval("(every #'evenp (list 2 5))"), Value::Nil);
    assert_eq!(eval("(some #'evenp (list 1 3 4))"), Value::Bool(true));
}

#[test]
fn list_transforms() {
    assert_eq!(
        eval("(append (list 1) nil (list 2 3))"),
        eval("(list 1 2 3)")
    );
    assert_eq!(eval("(reverse (list 1 2 3))"), eval("(list 3 2 1)"));
    assert_eq!(eval("(remove 2 (list 1 2 3 2))"), eval("(list 1 3)"));
    assert_eq!(
        eval("(flatten (list 1 (list 2 (list 3)) 4))"),
        eval("(list 1 2 3 4)")
    );
    assert_eq!(eval("(subseq (list 1 2 3 4 5) 1 3)"), eval("(list 2 3)"));
    assert_eq!(eval("(subseq \"hello\" 1 3)"), Value::str("el"));
    assert_eq!(eval("(range 3)"), eval("(list 0 1 2)"));
    assert_eq!(eval("(range 5 1 -2)"), eval("(list 5 3)"));
    assert_eq!(
        eval("(sort (list \"b\" \"a\" \"c\"))"),
        eval("(list \"a\" \"b\" \"c\")")
    );
    assert_eq!(eval("(vector->list [1 2])"), eval("(list 1 2)"));
    assert_eq!(eval("(list->vector (list 1 2))"), eval("[1 2]"));
    // seq->list on a map yields (k v) pairs.
    assert_eq!(eval("(length (seq->list {:a 1 :b 2}))"), Value::Int(2));
    // length is generic.
    assert_eq!(eval("(length \"abc\")"), Value::Int(3));
    assert_eq!(eval("(length [1 2 3 4])"), Value::Int(4));
    assert_eq!(eval("(length {:a 1})"), Value::Int(1));
    assert_eq!(eval("(length nil)"), Value::Int(0));
}

#[test]
fn map_operations() {
    assert_eq!(eval("(get {:a 1} :a)"), Value::Int(1));
    assert_eq!(eval("(get {:a 1} :z)"), Value::Nil);
    assert_eq!(eval("(get {:a 1} :z 9)"), Value::Int(9));
    assert_eq!(eval("(get (put {:a 1} :b 2) :b)"), Value::Int(2));
    // put is functional: the original is unchanged.
    assert_eq!(
        eval("(let ((m {:a 1})) (put m :a 99) (get m :a))"),
        Value::Int(1)
    );
    assert_eq!(eval("(contains-key? {:a 1} :a)"), Value::Bool(true));
    assert_eq!(eval("(get (dissoc {:a 1 :b 2} :a) :a)"), Value::Nil);
    assert_eq!(eval("(keys {:a 1 :b 2})"), eval("(list :a :b)"));
    assert_eq!(eval("(vals {:a 1 :b 2})"), eval("(list 1 2)"));
    assert_eq!(eval("(get (merge {:a 1} {:a 2 :b 3}) :a)"), Value::Int(2));
    assert_eq!(eval("(get (make-map :x 1 :y 2) :y)"), Value::Int(2));
}

#[test]
fn string_functions() {
    assert_eq!(eval("(string-upcase \"abc\")"), Value::str("ABC"));
    assert_eq!(eval("(string-downcase \"ABC\")"), Value::str("abc"));
    assert_eq!(eval("(string-trim \"  x  \")"), Value::str("x"));
    assert_eq!(
        eval("(string-replace \"a-b-c\" \"-\" \"+\")"),
        Value::str("a+b+c")
    );
    assert_eq!(
        eval("(string-contains? \"hello\" \"ell\")"),
        Value::Bool(true)
    );
    assert_eq!(
        eval("(string-starts-with? \"hello\" \"he\")"),
        Value::Bool(true)
    );
    assert_eq!(
        eval("(string-ends-with? \"hello\" \"lo\")"),
        Value::Bool(true)
    );
    assert_eq!(eval("(string= \"a\" \"a\")"), Value::Bool(true));
    assert_eq!(eval("(string< \"a\" \"b\")"), Value::Bool(true));
    assert_eq!(eval("(parse-integer \" 42 \")"), Value::Int(42));
    assert_eq!(eval("(parse-float \"2.5\")"), Value::Float(2.5));
    assert_eq!(eval("(symbol-name 'foo)"), Value::str("foo"));
    assert_eq!(eval("(symbol-name :kw)"), Value::str("kw"));
    assert_eq!(eval("(string->symbol \"abc\")"), Value::symbol("abc"));
    assert_eq!(eval("(string->keyword \"k\")"), Value::keyword("k"));
    assert_eq!(eval("(char->string #\\x)"), Value::str("x"));
    assert_eq!(eval("(string-ref \"abc\" 1)"), Value::Char('b'));
    assert_eq!(eval("(prin1-to-string \"x\")"), Value::str("\"x\""));
    assert_eq!(eval("(string 42)"), Value::str("42"));
}

#[test]
fn predicates() {
    for (src, expected) in [
        ("(null nil)", true),
        ("(null 0)", false),
        ("(atom 5)", true),
        ("(atom (list 1))", false),
        ("(listp nil)", true),
        ("(consp nil)", false),
        ("(consp (list 1))", true),
        ("(symbolp 'a)", true),
        ("(keywordp :a)", true),
        ("(stringp \"s\")", true),
        ("(numberp 1.5)", true),
        ("(integerp 1)", true),
        ("(integerp 1.0)", false),
        ("(floatp 1.0)", true),
        ("(functionp #'+)", true),
        ("(vectorp [1])", true),
        ("(mapp {:a 1})", true),
        ("(characterp #\\a)", true),
        ("(zerop 0.0)", true),
        ("(plusp 2)", true),
        ("(minusp -1)", true),
        ("(evenp 4)", true),
        ("(oddp 4)", false),
        ("(boundp '+)", true),
        ("(boundp 'no-such-var-xyz)", false),
    ] {
        let got = eval(src);
        assert_eq!(got.is_truthy(), expected, "{src} => {got:?}");
    }
}

#[test]
fn equality_flavours() {
    // eq: identity for aggregates.
    assert_eq!(eval("(let ((a (list 1 2))) (eq a a))"), Value::Bool(true));
    assert_eq!(eval("(eq (list 1 2) (list 1 2))"), Value::Nil);
    // equal: structural.
    assert_eq!(eval("(equal (list 1 2) (list 1 2))"), Value::Bool(true));
    assert_eq!(eval("(equal {:a 1} {:a 1})"), Value::Bool(true));
    assert_eq!(eval("(equal 1 1.0)"), Value::Nil); // structural, not numeric
    assert_eq!(eval("(= 1 1.0)"), Value::Bool(true)); // numeric
}

#[test]
fn metaprogramming_helpers() {
    assert_eq!(
        eval("(macroexpand-1 '(when x 1))"),
        eval("'(if x (progn 1))")
    );
    assert_eq!(eval("(macroexpand-1 '(+ 1 2))"), eval("'(+ 1 2)"));
    // gensyms are fresh.
    assert_eq!(eval("(equal (gensym) (gensym))"), Value::Nil);
    // disassemble produces text mentioning the ops.
    let text = eval("(disassemble (lambda (x) (+ x 1)))");
    let s = text.as_str().unwrap();
    assert!(s.contains("Return"), "{s}");
    // type-of is a plain native, so a future argument is *determined*
    // before it runs (§4.1) — it reports the underlying value's type.
    assert_eq!(eval("(type-of (future 1))"), Value::symbol("integer"));
    // The raw predicate sees the future itself.
    assert_eq!(eval("(futurep (future 1))"), Value::Bool(true));
}

#[test]
fn case_with_list_keys() {
    assert_eq!(
        eval("(case 3 ((1 2) :low) ((3 4) :mid) (otherwise :high))"),
        Value::keyword("mid")
    );
    assert_eq!(
        eval("(case 9 ((1 2) :low) (otherwise :high))"),
        Value::keyword("high")
    );
    assert_eq!(eval("(case :x (:x :found))"), Value::keyword("found"));
}

#[test]
fn percent_platform_sugar() {
    // (% f args) => (f args), Listing 2's (% is-fiber-thread).
    assert_eq!(eval("(% + 1 2)"), Value::Int(3));
}

#[test]
fn error_messages_are_helpful() {
    assert!(eval_err("(undefined-fn-xyz 1)")
        .to_string()
        .contains("unbound variable: undefined-fn-xyz"));
    assert!(eval_err("(+ 1 \"x\")").to_string().contains("number"));
    assert!(eval_err("(funcall 42)").to_string().contains("function"));
    assert!(eval_err("(first 42)").to_string().contains("sequence"));
    assert!(eval_err("(elt (list 1) 5)")
        .to_string()
        .contains("out of bounds"));
    assert!(eval_err("((lambda (x) x))")
        .to_string()
        .contains("expected at least 1"));
    assert!(eval_err("((lambda (x) x) 1 2)")
        .to_string()
        .contains("too many"));
    assert!(eval_err("((lambda (&key k) k) :wrong 1)")
        .to_string()
        .contains("unknown keyword"));
}

#[test]
fn object_protocol() {
    assert_eq!(
        eval(
            "(let ((o (create-object \"bag\" \"x\" 1)))
               (. o (set \"y\" 2))
               (list (object-class o)
                     (. o (get \"x\"))
                     (. o (has \"y\"))
                     (. o (size))
                     (. o (remove \"x\"))
                     (. o (size))))"
        ),
        eval("(list \"bag\" 1 t 2 1 1)")
    );
}

#[test]
fn reduce_variants() {
    assert_eq!(eval("(reduce #'+ (list 1 2 3))"), Value::Int(6));
    assert_eq!(eval("(reduce #'+ nil)"), Value::Int(0));
    assert_eq!(eval("(reduce #'+ nil 42)"), Value::Int(42));
    assert_eq!(
        eval("(reduce (lambda (acc x) (cons x acc)) (list 1 2 3) nil)"),
        eval("(list 3 2 1)")
    );
}

#[test]
fn format_edge_cases() {
    assert_eq!(eval("(format nil \"~~\")"), Value::str("~"));
    assert_eq!(eval("(format nil \"~s\" \"q\")"), Value::str("\"q\""));
    assert_eq!(eval("(format nil \"~f\" 2.5)"), Value::str("2.5"));
    assert!(Gvm::with_pool_size(1)
        .eval_str("(format nil \"~a\")")
        .is_err());
    assert!(Gvm::with_pool_size(1)
        .eval_str("(format nil \"~z\" 1)")
        .is_err());
}

#[test]
fn apropos_and_describe() {
    let gvm = Gvm::with_pool_size(1);
    let v = gvm.eval_str("(apropos \"string-up\")").unwrap();
    assert_eq!(v, gvm.eval_str("'(string-upcase)").unwrap());
    gvm.eval_str("(defun documented (x) \"the doc\" x) (describe 'documented)")
        .unwrap();
    let log = gvm.take_log().join("\n");
    assert!(log.contains("the doc"), "{log}");
    assert!(log.contains("1 required"), "{log}");
}

#[test]
fn constant_folding_preserves_semantics() {
    // Folded and unfolded paths agree.
    assert_eq!(eval("(+ 1 2 3)"), Value::Int(6));
    assert_eq!(eval("(* 2 (+ 3 4) (- 10 1))"), Value::Int(126));
    assert_eq!(eval("(min 4 (max 1 9) 2)"), Value::Int(2));
    assert_eq!(eval("(- 5)"), Value::Int(-5));
    // Shadowing the operator must defeat folding.
    assert_eq!(
        eval("(let ((+ (lambda (a b) (* a b)))) (funcall + 3 4))"),
        Value::Int(12)
    );
    assert_eq!(
        eval("(let ((+ (lambda (a b) 999))) (+ 2 3))"),
        Value::Int(999)
    );
    // Overflow is left to the runtime (promotes to float, not a compile
    // error).
    assert!(matches!(
        eval("(* 9223372036854775807 9223372036854775807)"),
        Value::Float(_)
    ));
}

#[test]
fn constant_folding_emits_single_constant() {
    // The compiled toplevel for a foldable expression is just
    // Const + Return.
    use gozer_vm::{Compiler, GvmHost, Op};
    let gvm = Gvm::with_pool_size(1);
    let form = gozer_lang::Reader::read_one_str("(* 2 (+ 3 4))").unwrap();
    let p = Compiler::compile_toplevel(&GvmHost(&gvm), &form, "t", 1).unwrap();
    assert_eq!(p.chunks[0].code.len(), 2, "{:?}", p.chunks[0].code);
    assert!(matches!(p.chunks[0].code[0], Op::Const(_)));
    assert!(matches!(p.chunks[0].code[1], Op::Return));
}

#[test]
fn division_and_reciprocal() {
    assert_eq!(eval("(/ 8 2 2)"), Value::Int(2));
    assert_eq!(eval("(/ 1)"), Value::Int(1));
    assert_eq!(eval("(/ 2)"), Value::Float(0.5));
    assert_eq!(eval("(/ 7.0 2)"), Value::Float(3.5));
    assert!(eval_err("(/ 1 0)").to_string().contains("division by zero"));
    assert!(eval_err("(mod 5 0)").to_string().contains("zero"));
}

#[test]
fn dolist_dotimes_result_forms() {
    assert_eq!(
        eval("(let ((acc 0)) (dolist (x (list 1 2 3) acc) (setq acc (+ acc x))))"),
        Value::Int(6)
    );
    assert_eq!(
        eval("(let ((acc 0)) (dotimes (i 4 (* acc 10)) (setq acc (+ acc i))))"),
        Value::Int(60)
    );
}

#[test]
fn loop_combined_clauses() {
    // for..in + until + collect.
    assert_eq!(
        eval("(loop for x in (list 1 2 3 4 5) until (> x 3) collect x)"),
        eval("(list 1 2 3)")
    );
    // repeat + collect.
    assert_eq!(
        eval("(let ((n 0)) (loop repeat 3 collect (setq n (+ n 1))))"),
        eval("(list 1 2 3)")
    );
    // bare while loop with do.
    assert_eq!(
        eval("(let ((n 0)) (loop while (< n 5) do (incf n)) n)"),
        Value::Int(5)
    );
    // empty loop over nil.
    assert_eq!(eval("(loop for x in nil collect x)"), Value::Nil);
}

#[test]
fn vectors_and_maps_evaluate_elements() {
    assert_eq!(eval("[(+ 1 1) (* 2 2)]"), eval("[2 4]"));
    assert_eq!(eval("(get {(+ 1 1) :two} 2)"), Value::keyword("two"));
}

#[test]
fn deeply_nested_data_roundtrips_through_eval() {
    // 100 levels of quoted structure: exercises the reader depth
    // accounting under the cap.
    let src = format!("'{}{}{}", "(a ".repeat(100), "b", ")".repeat(100));
    let v = eval(&src);
    let mut depth = 0;
    let mut cur = v;
    while let Some(items) = cur.as_list() {
        depth += 1;
        if items.len() < 2 {
            break;
        }
        cur = items[1].clone();
    }
    assert_eq!(depth, 100);
}
