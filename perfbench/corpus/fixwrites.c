/*
 * fixwrites — a line filter that post-processes the C code emitted from
 * WEB sources (synthetic stand-in for the web2c tool of the same name the
 * paper evaluates: eight procedures, ~460 source lines).
 *
 * The error population matches §5's description of what CSSV found there:
 * unsafe calls to library functions such as strcpy, unsafe assumptions
 * that an input line contains a specific character, and unsafe pointer
 * arithmetic — eight real errors in total, plus two false alarms in the
 * defensively-written procedures.
 */

#define LINE_MAX 512
#define NAME_MAX 64

char progname[NAME_MAX];
char errbuf[80];

/* ------------------------------------------------------------------ */
/* 1. Strip the trailing newline that fgets leaves in place.           */
/*    ERROR (paper: "unsafe pointer arithmetic"): on an empty input    */
/*    line, strlen(line) == 0 and the write lands at line[-1].         */

void remove_newline(char *line)
    requires (is_nullt(line))
    modifies (is_nullt(line)), (strlen(line))
    ensures (is_nullt(line))
{
    int n;

    n = strlen(line);
    line[n - 1] = '\0';
}

/* ------------------------------------------------------------------ */
/* 2. Find the continuation column after a split.                      */
/*    ERROR (paper: "unsafe assumptions that an input contains a       */
/*    specific character"): the scan for '=' runs past the terminator  */
/*    when the line has none.                                          */

int find_assign(char *line)
    requires (is_nullt(line))
    ensures (return_value >= 0)
{
    int i;

    i = 0;
    while (line[i] != '=') {
        i = i + 1;
    }
    return i;
}

/* ------------------------------------------------------------------ */
/* 3. Join the long-line continuation into a fixed buffer.             */
/*    ERRORS: two unsafe library calls — the strcpy can overflow       */
/*    'joined' (no relation between the two lengths and LINE_MAX) and  */
/*    so can the strcat.                                               */

void join_lines(char *first, char *second)
    requires (is_nullt(first) && is_nullt(second))
{
    char joined[LINE_MAX];

    strcpy(joined, first);
    strcat(joined, second);
}

/* ------------------------------------------------------------------ */
/* 4. Report a complaint, prefixed by the program name.                */
/*    ERROR: sprintf into the 80-byte errbuf can overflow when the     */
/*    name and message are long.                                       */

void whine(char *msg)
    requires (is_nullt(msg) && is_nullt(progname))
    modifies (errbuf)
{
    sprintf(errbuf, "%s: fatal: %s", progname, msg);
}

/* ------------------------------------------------------------------ */
/* 5. Break an over-long emitted line at the last blank before the     */
/*    limit. Defensive and safe, but proving the backward scan stays   */
/*    in bounds needs the fact that column 0 holds a blank on this     */
/*    path — a correctness property (FALSE ALARM source, like the      */
/*    paper's skip_balanced).                                          */

int break_line(char *line, int limit)
    requires (is_nullt(line) && limit >= 1 && strlen(line) >= limit &&
              line == base(line))
    modifies (is_nullt(line)), (strlen(line))
    ensures (return_value >= 0)
{
    int i;
    char c;

    i = limit;
    c = line[i];
    while (c != ' ') {
        i = i - 1;
        c = line[i];
    }
    line[i] = '\0';
    return i;
}

/* ------------------------------------------------------------------ */
/* 6. Skip the blanks that begin a continuation line. Safe: the scan   */
/*    stops at the terminator because ' ' != '\0'.                     */

char *skip_blanks(char *p)
    requires (is_nullt(p))
    ensures (is_nullt(return_value) && is_within_bounds(return_value))
{
    char c;

    c = *p;
    while (c == ' ') {
        p = p + 1;
        c = *p;
    }
    return p;
}

/* ------------------------------------------------------------------ */
/* 7. Copy the program name from argv[0] at startup.                   */
/*    ERROR: unsafe strcpy — nothing bounds the argument by NAME_MAX.  */

void set_progname(char *name)
    requires (is_nullt(name))
    modifies (progname)
{
    strcpy(progname, name);
}

/* ------------------------------------------------------------------ */
/* 8. The main loop: read, fix, and emit each line.                    */
/*    ERRORS: the fgets length leaves no room for the newline the      */
/*    splicing appends (off-by-one, like the paper's running example), */
/*    and remove_newline's precondition cannot be established for the  */
/*    empty line.                                                      */

void fix_file(void)
{
    char line[LINE_MAX];
    char *r;
    char *end;

    r = fgets(line, LINE_MAX + 1, 0);
    remove_newline(line);
    end = line + strlen(line);
    *end = '\n';
    end = end + 1;
    *end = '\0';
}
