/* The safe variant of the scan: stopping at the null terminator keeps
   every read inside the string. */

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
