/* fixwrites error population, item 2: the scan assumes the line holds
   an '=' and runs past the terminator when it does not. */

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
