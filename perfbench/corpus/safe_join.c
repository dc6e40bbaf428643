/* The contract-repaired join: the caller must guarantee the combined
   length fits, and under that precondition both library calls are
   safe. */

#define LINE_MAX 128

void join_lines(char *first, char *second)
    requires (is_nullt(first) && is_nullt(second) &&
              strlen(first) + strlen(second) < LINE_MAX)
{
    char joined[LINE_MAX];

    strcpy(joined, first);
    strcat(joined, second);
}
