//! Pins of what the reader produces, taken from the reader as it was
//! before it read from a cursor, so a rewrite of the read loop shows any
//! drift here: the forms of every source that ships (hashed through
//! their Debug print, the same text program ids are derived from), the
//! message and position of each kind of syntax error, and where the
//! outer read resumes after a user macro character has read from its
//! stream.

use gozer_lang::reader::MAX_NESTING;
use gozer_lang::{LangError, Reader, Value};
use gozer_vm::{Gvm, VmError};

/// FNV-1a 64 over the Debug print of every form, each followed by a
/// newline.
fn forms_hash(src: &str) -> (usize, u64) {
    let forms = Reader::read_all_str(src).expect("source reads");
    let mut h: u64 = 0xcbf29ce484222325;
    for form in &forms {
        for b in format!("{form:?}\n").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    (forms.len(), h)
}

#[test]
fn shipped_sources_read_to_the_same_forms() {
    let sources = [
        ("PRELUDE", gozer_vm::natives::PRELUDE),
        ("VINZ_PRELUDE", vinz::prelude::VINZ_PRELUDE),
        ("pipeline.gz", include_str!("../../../examples/pipeline.gz")),
    ];
    let want = [
        (9, 3044619746817742846),
        (16, 2443422291203942756),
        (5, 14767338328365145358),
    ];
    for ((name, src), want) in sources.iter().zip(want) {
        assert_eq!(forms_hash(src), want, "{name}");
    }
}

fn read_err(src: &str) -> LangError {
    Reader::read_all_str(src).expect_err(src)
}

#[test]
fn syntax_errors_keep_their_message_and_position() {
    let deep = "(".repeat(MAX_NESTING as usize + 1);
    let cases: [(&str, &str); 8] = [
        ("(a (b c)\n  d", "2:4: unterminated list"),
        ("(x \"abc\n de", "2:4: unterminated string"),
        (
            "1 #| open #| nested |# ",
            "1:24: unterminated block comment",
        ),
        ("(a b))", "1:7: unexpected ')'"),
        ("(a #x)", "1:6: unknown dispatch character #x"),
        ("(a\n #", "2:3: unexpected end of input after #"),
        (&deep, "1:258: nesting deeper than 256"),
        ("(défaut λ→x) ünï )", "1:19: unexpected ')'"),
    ];
    for (src, want) in cases {
        let e = read_err(src);
        assert_eq!(
            format!("{}:{}: {}", e.line, e.column, e.message),
            want,
            "{src:?}"
        );
    }
}

/// `!` reads two forms and one character off its stream; the outer
/// read then picks up right after that character.
const BANG: &str = "(set-macro-character #\\! \
     (lambda (s c) (list 'quote (list (read s) (read s) (read-char s)))))";

#[test]
fn a_user_macro_character_hands_the_stream_back_where_it_stopped() {
    let gvm = Gvm::with_pool_size(1);
    gvm.eval_str(BANG).expect("macro installs");
    let v: Value = gvm
        .eval_str("(read-from-string \"[!alpha (beta)|gamma]\")")
        .expect("reads");
    assert_eq!(format!("{v:?}"), "[(quote (alpha (beta) #\\|)) gamma]");
    // The stray `)` is reported where the outer read met it.
    match gvm.load_str("'[!alpha (beta)|gamma\n  delta )", "pin") {
        Err(VmError::Read(e)) => {
            assert_eq!(
                format!("{}:{}: {}", e.line, e.column, e.message),
                "2:10: unexpected ')'"
            )
        }
        other => panic!("want a read error, got {other:?}"),
    }
}
